// TSan stress for the persistent-worker machinery: SPSC rings sized to
// wrap around constantly, a pinned 1-packet chunk so the park/doorbell
// handshake fires thousands of times, and a churn thread landing sealed
// TableTransactions through DataPlaneEngine::apply() mid-stream. The CI
// tsan job builds exactly this binary; the invariants below hold under any
// interleaving:
//  * no lost or duplicated packets — every submitted packet yields exactly
//    one verdict and exactly one in_processed increment;
//  * genuine stamped traffic is never dropped (two-phase re-keys keep the
//    original key valid as the grace key throughout);
//  * orphan-free epochs — apply() returns strictly consecutive epochs and
//    the final table epoch equals the last one returned: no transaction is
//    ever lost, re-applied, or torn across a batch.
// apply() prepares without the engine lock and commits under it, so the
// churn also includes transactions whose prepare compiles new Pfx2AS and
// function-table forms while the batches read the live ones.
#include "dataplane/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/transaction.hpp"
#include "reference_router.hpp"

namespace discs {
namespace {

constexpr AsNumber kPeerAs = 100;
constexpr AsNumber kVictimAs = 200;

// Alternating re-keys between kKeyA and kKeyB with retain_previous keep
// packets stamped under kKeyA verifiable at every instant.
const Key128 kKeyA = derive_key128(1);
const Key128 kKeyB = derive_key128(2);

struct SealedEnv {
  RouterTables victim;
  RouterTables peer;

  SealedEnv() {
    auto fill = [](Pfx2AsTable& t) {
      t.add(*Prefix4::parse("10.0.0.0/8"), kPeerAs);
      t.add(*Prefix4::parse("20.0.0.0/8"), kVictimAs);
      t.add(*Prefix6::parse("2001:db8:aaaa::/48"), kPeerAs);
      t.add(*Prefix6::parse("2001:db8:bbbb::/48"), kVictimAs);
    };
    fill(victim.pfx2as);
    fill(peer.pfx2as);
    peer.key_s.set_key(kVictimAs, kKeyA);
    victim.key_v.set_key(kPeerAs, kKeyA);
    peer.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpStamp, 0, kHour);
    peer.out_dst.install(*Prefix6::parse("2001:db8:bbbb::/48"),
                         DefenseFunction::kCdpStamp, 0, kHour);
    victim.in_dst.install(*Prefix4::parse("20.0.0.0/8"),
                          DefenseFunction::kCdpVerify, 0, kHour);
    victim.in_dst.install(*Prefix6::parse("2001:db8:bbbb::/48"),
                          DefenseFunction::kCdpVerify, 0, kHour);
    // From here on the ONLY mutation path into the victim's tables is
    // TableTransaction::apply through the engine's writer lock.
    victim.seal();
  }
};

Ipv4Address rand4(Xoshiro256& rng, std::uint32_t net) {
  return Ipv4Address(net | (static_cast<std::uint32_t>(rng.next()) & 0xffffff));
}

Ipv6Address rand6(Xoshiro256& rng, std::uint16_t site) {
  return Ipv6Address::from_groups(
      {0x2001, 0xdb8, site, static_cast<std::uint16_t>(rng.below(0xffff)), 0, 0,
       0, static_cast<std::uint16_t>(rng.below(0xffff))});
}

TEST(EngineStressTest, ApplyChurnWhileWorkersDrainTinyRings) {
  SealedEnv env;
  EngineConfig config;
  config.shards = 4;
  config.ring_slots = 2;  // constant wraparound + producer backpressure
  config.min_chunk = 1;   // every packet is its own work item
  config.max_chunk = 1;
  DataPlaneEngine engine(env.victim, kVictimAs, config);
  engine.start();
  ASSERT_TRUE(engine.workers_running());

  constexpr int kBatches = 100;
  constexpr std::size_t kBatchSize = 256;
  constexpr SimTime kNow = kMinute;

  std::atomic<bool> stop{false};
  std::vector<TableEpoch> epochs;
  std::thread churn([&] {
    Xoshiro256 rng(777);
    bool key_is_a = true;
    while (!stop.load(std::memory_order_acquire)) {
      TableTransaction txn;
      switch (rng.below(3)) {
        case 0:  // two-phase re-key; the old key survives as grace key
          key_is_a = !key_is_a;
          txn.set_verify_key(kPeerAs, key_is_a ? kKeyA : kKeyB,
                             /*retain_previous=*/true);
          break;
        case 1:  // extend the verify window (idempotent re-install)
          txn.install_function(FunctionDirection::kInDst,
                               *Prefix4::parse("20.0.0.0/8"),
                               DefenseFunction::kCdpVerify, kHour);
          break;
        case 2:  // expiry sweep plus an unrelated Pfx2AS refinement
          txn.expire_functions();
          txn.map_prefix(*Prefix4::parse("10.1.0.0/16"), kPeerAs);
          break;
      }
      epochs.push_back(engine.apply(txn, kNow));
      std::this_thread::yield();
    }
  });

  // Consumer: every packet is genuinely stamped with kKeyA, so every
  // verdict must be kPass regardless of how transactions interleave.
  ReferenceRouter stamper(env.peer, kPeerAs, 11);
  Xoshiro256 rng(123);
  std::uint64_t processed = 0;
  for (int b = 0; b < kBatches; ++b) {
    PacketBatch batch;
    batch.reserve(kBatchSize);
    while (batch.size() < kBatchSize) {
      if (rng.chance(0.3)) {
        Ipv6Packet p = Ipv6Packet::make(rand6(rng, 0xaaaa), rand6(rng, 0xbbbb),
                                        17, std::vector<std::uint8_t>(16));
        ASSERT_EQ(stamper.outbound(p, kNow), Verdict::kPass);
        batch.add(std::move(p));
      } else {
        Ipv4Packet p = Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                        rand4(rng, 0x14000000u), IpProto::kUdp,
                                        std::vector<std::uint8_t>(16));
        ASSERT_EQ(stamper.outbound(p, kNow), Verdict::kPass);
        batch.add(std::move(p));
      }
    }
    const std::vector<Verdict> verdicts = engine.process_inbound(batch, kNow);
    ASSERT_EQ(verdicts.size(), kBatchSize) << "batch " << b;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      ASSERT_EQ(verdicts[i], Verdict::kPass)
          << "batch " << b << " packet " << i
          << ": genuine packet dropped mid-transaction";
    }
    processed += verdicts.size();
  }
  stop.store(true, std::memory_order_release);
  churn.join();

  // No lost or duplicated packets: the merged stats account for every
  // packet exactly once, and no interleaving produced a spoof verdict.
  const RouterStats stats = engine.stats();
  EXPECT_EQ(stats.in_processed, processed);
  EXPECT_EQ(stats.in_spoof_dropped, 0u);
  EXPECT_EQ(stats.in_spoof_sampled, 0u);

  // Orphan-free epochs: strictly consecutive, none skipped or re-issued,
  // and the tables ended up exactly at the last applied epoch.
  ASSERT_FALSE(epochs.empty());
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    ASSERT_EQ(epochs[i], epochs[i - 1] + 1) << "epoch " << i;
  }
  EXPECT_EQ(env.victim.applied_epoch(), epochs.back());

  // The tiny rings really exercised the protocol: work was dispatched in
  // 1-packet items and the producer hit ring-full backpressure.
  const DataPlaneEngine::WorkerStats ws = engine.worker_stats();
  EXPECT_GE(ws.chunks, processed / 2);  // shard 0 runs inline; 3/4 ringed
  EXPECT_GT(ws.parks, 0u);
  // Every park ends in exactly one counted wakeup; the difference is the
  // number of workers parked at this instant — between 0 and all three.
  EXPECT_GE(ws.parks, ws.wakeups);
  EXPECT_LE(ws.parks - ws.wakeups, 3u);
}

// Structural churn: every transaction changes prefix structure, so each
// apply() compiles new forms in prepare — beside 4-shard batches reading
// the live forms — and swaps them in at commit. The churn touches only
// prefixes no packet uses (origin changes, new Pfx2AS prefixes, new
// function prefixes), so every genuine packet must still verify.
TEST(EngineStressTest, PrepareCompilesBesideBatchesAndCommitsConsecutively) {
  SealedEnv env;
  EngineConfig config;
  config.shards = 4;
  config.ring_slots = 4;
  DataPlaneEngine engine(env.victim, kVictimAs, config);
  engine.start();

  constexpr SimTime kNow = kMinute;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> commits{0};
  std::vector<TableEpoch> epochs;
  std::thread churn([&] {
    Xoshiro256 rng(4242);
    for (std::uint32_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
      const auto slot = static_cast<std::uint16_t>(k % 4096);
      TableTransaction txn;
      // An origin change on an untrafficked prefix, and a new one beside it.
      txn.map_prefix(*Prefix4::parse("30.0.0.0/8"),
                     k % 2 == 0 ? kPeerAs : kVictimAs);
      txn.map_prefix(Prefix4(Ipv4Address((31u << 24) | (slot << 8)), 24),
                     static_cast<AsNumber>(300 + rng.below(16)));
      txn.map_prefix(
          Prefix6(Ipv6Address::from_groups({0x2001, 0xdb8, 0xcccc, slot, 0, 0,
                                            0, 0}),
                  64),
          kPeerAs);
      // New function prefixes in two tables, one family each.
      txn.install_function_window(
          FunctionDirection::kInSrc,
          Prefix4(Ipv4Address((40u << 24) | (slot << 8)), 24),
          DefenseFunction::kCspVerify, 0, kHour);
      txn.install_function_window(
          FunctionDirection::kOutDst,
          Prefix6(Ipv6Address::from_groups({0x2001, 0xdb8, 0xdddd, slot, 0, 0,
                                            0, 0}),
                  64),
          DefenseFunction::kDp, 0, kHour);
      epochs.push_back(engine.apply(txn, kNow));
      commits.fetch_add(1, std::memory_order_release);
      std::this_thread::yield();
    }
  });

  // At least 60 batches, and keep going until 32 commits landed among them.
  ReferenceRouter stamper(env.peer, kPeerAs, 23);
  Xoshiro256 rng(99);
  std::uint64_t processed = 0;
  for (int b = 0; b < 60 || commits.load(std::memory_order_acquire) < 32;
       ++b) {
    PacketBatch batch;
    while (batch.size() < 256) {
      if (rng.chance(0.3)) {
        Ipv6Packet p = Ipv6Packet::make(rand6(rng, 0xaaaa), rand6(rng, 0xbbbb),
                                        17, std::vector<std::uint8_t>(16));
        ASSERT_EQ(stamper.outbound(p, kNow), Verdict::kPass);
        batch.add(std::move(p));
      } else {
        Ipv4Packet p = Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                        rand4(rng, 0x14000000u), IpProto::kUdp,
                                        std::vector<std::uint8_t>(16));
        ASSERT_EQ(stamper.outbound(p, kNow), Verdict::kPass);
        batch.add(std::move(p));
      }
    }
    const std::vector<Verdict> verdicts = engine.process_inbound(batch, kNow);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      ASSERT_EQ(verdicts[i], Verdict::kPass)
          << "batch " << b << " packet " << i
          << ": genuine packet dropped beside a structural commit";
    }
    processed += verdicts.size();
  }
  stop.store(true, std::memory_order_release);
  churn.join();

  EXPECT_EQ(engine.stats().in_processed, processed);
  ASSERT_FALSE(epochs.empty());
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    ASSERT_EQ(epochs[i], epochs[i - 1] + 1) << "epoch " << i;
  }
  EXPECT_EQ(env.victim.applied_epoch(), epochs.back());
  // The last commit's forms are live: its new prefixes resolve.
  const auto last = static_cast<std::uint32_t>((epochs.size() - 1) % 4096);
  EXPECT_NE(env.victim.in_src
                .lookup(Ipv4Address((40u << 24) | (last << 8) | 1), kNow)
                .functions,
            0);
}

using EngineStressDeathTest = ::testing::Test;

// A Prepared is only valid against the table epoch it was built at: a
// commit after another transaction landed in between must abort rather
// than swap in forms that lack that transaction's prefixes.
TEST(EngineStressDeathTest, CommitOfAStalePrepareAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SealedEnv env;
  TableTransaction late;
  late.map_prefix(*Prefix4::parse("30.0.0.0/8"), kPeerAs);
  TableTransaction::Prepared prepared = late.prepare(env.victim);
  TableTransaction early;
  early.map_prefix(*Prefix4::parse("31.0.0.0/8"), kPeerAs);
  early.apply(env.victim, kMinute);
  EXPECT_DEATH(late.commit(env.victim, std::move(prepared), kMinute),
               "prepared at table epoch 0 onto tables at epoch 1");
}

// stop()/start() cycling between batches while a churn thread applies
// transactions: workers must re-spawn cleanly and never strand a ring item.
TEST(EngineStressTest, StopStartCyclesStayLossless) {
  SealedEnv env;
  EngineConfig config;
  config.shards = 3;
  config.ring_slots = 2;
  config.min_chunk = 2;
  config.max_chunk = 2;
  DataPlaneEngine engine(env.victim, kVictimAs, config);

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Xoshiro256 rng(5);
    bool key_is_a = true;
    while (!stop.load(std::memory_order_acquire)) {
      key_is_a = !key_is_a;
      TableTransaction txn;
      txn.set_verify_key(kPeerAs, key_is_a ? kKeyA : kKeyB,
                         /*retain_previous=*/true);
      (void)engine.apply(txn, kMinute);
      std::this_thread::yield();
    }
  });

  ReferenceRouter stamper(env.peer, kPeerAs, 17);
  Xoshiro256 rng(29);
  std::uint64_t processed = 0;
  for (int b = 0; b < 40; ++b) {
    if (b % 5 == 0) engine.stop();  // next batch lazily restarts the workers
    PacketBatch batch;
    for (std::size_t i = 0; i < 64; ++i) {
      Ipv4Packet p = Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                      rand4(rng, 0x14000000u), IpProto::kUdp,
                                      std::vector<std::uint8_t>(8));
      ASSERT_EQ(stamper.outbound(p, kMinute), Verdict::kPass);
      batch.add(std::move(p));
    }
    for (const Verdict v : engine.process_inbound(batch, kMinute)) {
      ASSERT_EQ(v, Verdict::kPass);
    }
    processed += batch.size();
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  EXPECT_EQ(engine.stats().in_processed, processed);
  EXPECT_TRUE(engine.workers_running());
}

}  // namespace
}  // namespace discs
