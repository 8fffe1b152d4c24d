// The DiscsSystem batch path: send_batch must agree with send_packet (a
// one-packet send_batch call) verdict-for-verdict, run_attack_batched must
// reproduce run_attack (batch size 1) exactly — chunking invariance — and
// the batch path must stay safe while control-plane transactions land
// mid-stream (the suite CI runs under TSan).
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/discs_system.hpp"
#include "crypto/cmac.hpp"

namespace discs {
namespace {

DiscsSystem::Config small_config() {
  DiscsSystem::Config cfg;
  cfg.internet.num_ases = 32;
  cfg.internet.num_prefixes = 320;
  cfg.internet.seed = 99;
  cfg.seed = 5;
  return cfg;
}

struct Cast {
  AsNumber victim;
  AsNumber helper;
  AsNumber legacy;
};

Cast pick_cast(const DiscsSystem& system) {
  const auto order = system.dataset().ases_by_space_desc();
  return Cast{order[0], order[1], order[2]};
}

/// Deploys victim+helper, settles, arms DP+CDP over every victim prefix.
void arm_defense(DiscsSystem& system, const Cast& cast) {
  auto& victim = system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();
  victim.invoke_ddos_defense_all(/*spoofed_source=*/false);
  system.settle(10 * kSecond);  // past the tolerance interval
}

/// A deterministic traffic mix from `origin`: legitimate sources inside the
/// origin's own space, spoofed sources inside the victim's space, and a few
/// unroutable destinations.
std::vector<Ipv4Packet> craft_mix(const DiscsSystem& system, AsNumber origin,
                                  AsNumber victim) {
  const auto own = system.dataset().prefixes_of(origin);
  const auto target = system.dataset().prefixes_of(victim);
  std::vector<Ipv4Packet> packets;
  for (std::size_t k = 0; k < 64; ++k) {
    const Prefix4& src_pfx = k % 2 == 0 ? own[k % own.size()]
                                        : target[k % target.size()];
    const Ipv4Address src(src_pfx.address().bits() + 1 +
                          static_cast<std::uint32_t>(k % 7));
    const Ipv4Address dst =
        k % 9 == 8 ? Ipv4Address::from_octets(240, 0, 0, 1)  // unroutable
                   : Ipv4Address(target[k % target.size()].address().bits() + 9);
    packets.push_back(Ipv4Packet::make(src, dst, IpProto::kUdp,
                                       {static_cast<std::uint8_t>(k)}));
  }
  return packets;
}

TEST(BatchPathTest, SendBatchMatchesSendPacketPerPacket) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  arm_defense(system, cast);

  for (const AsNumber origin : {cast.helper, cast.legacy}) {
    const std::vector<Ipv4Packet> mix = craft_mix(system, origin, cast.victim);

    std::vector<DeliveryResult> serial;
    for (Ipv4Packet p : mix) {  // copy: serial mutates (stamps) in place
      serial.push_back(system.send_packet(origin, p));
    }

    PacketBatch batch;
    batch.reserve(mix.size());
    for (const Ipv4Packet& p : mix) batch.add(p);
    const std::vector<DeliveryResult> batched = system.send_batch(origin, batch);

    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(batched[i].outcome, serial[i].outcome) << "packet " << i;
      EXPECT_EQ(batched[i].source_verdict, serial[i].source_verdict)
          << "packet " << i;
      EXPECT_EQ(batched[i].destination_verdict, serial[i].destination_verdict)
          << "packet " << i;
    }
  }
}

// Degenerate shapes through the zero-copy scatter view: send_batch hands
// the engines index lists into one flat batch, so empty index lists (all
// packets unroutable, or every survivor intra-AS) and single-packet views
// must behave exactly like their serial counterparts.
TEST(BatchPathTest, ScatterViewEdgeCases) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  arm_defense(system, cast);

  // Empty batch: no verdicts, no engine invocation.
  PacketBatch empty;
  EXPECT_TRUE(system.send_batch(cast.helper, empty).empty());

  // Single-packet batch agrees with send_packet.
  const std::vector<Ipv4Packet> mix =
      craft_mix(system, cast.helper, cast.victim);
  for (const Ipv4Packet& p : mix) {
    Ipv4Packet serial_copy = p;
    const DeliveryResult serial =
        system.send_packet(cast.helper, serial_copy);
    PacketBatch one;
    one.add(p);
    const auto batched = system.send_batch(cast.helper, one);
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(batched[0].outcome, serial.outcome);
    EXPECT_EQ(batched[0].source_verdict, serial.source_verdict);
    EXPECT_EQ(batched[0].destination_verdict, serial.destination_verdict);
  }

  // All-unroutable batch: both engine index lists are empty.
  PacketBatch unroutable;
  for (int k = 0; k < 8; ++k) {
    unroutable.add(Ipv4Packet::make(
        Ipv4Address::from_octets(240, 0, 0, static_cast<std::uint8_t>(k + 1)),
        Ipv4Address::from_octets(240, 1, 0, 1), IpProto::kUdp, {}));
  }
  for (const DeliveryResult& r : system.send_batch(cast.helper, unroutable)) {
    EXPECT_EQ(r.outcome, DeliveryOutcome::kUnroutable);
  }

  // Intra-AS batch: routable but never crosses a border — the outbound
  // index list must exclude every packet and both stages stay idle.
  const auto own = system.dataset().prefixes_of(cast.helper);
  PacketBatch intra;
  for (std::size_t k = 0; k + 1 < std::min<std::size_t>(own.size(), 4); ++k) {
    intra.add(Ipv4Packet::make(Ipv4Address(own[k].address().bits() + 1),
                               Ipv4Address(own[k + 1].address().bits() + 2),
                               IpProto::kUdp, {}));
  }
  for (const DeliveryResult& r : system.send_batch(cast.helper, intra)) {
    EXPECT_EQ(r.outcome, DeliveryOutcome::kDelivered);
    EXPECT_EQ(r.source_verdict, Verdict::kPass);  // default: stage skipped
  }
}

TEST(BatchPathTest, RunAttackBatchedReproducesRunAttack) {
  // Two identically-seeded systems evolve their samplers identically, so
  // the serial and batched attack runs see the exact same packet stream.
  DiscsSystem serial_system(small_config());
  DiscsSystem batched_system(small_config());
  const Cast cast = pick_cast(serial_system);
  arm_defense(serial_system, cast);
  arm_defense(batched_system, cast);

  const AttackReport serial = serial_system.run_attack(
      AttackType::kDirect, cast.helper, cast.victim, 300);
  const AttackReport batched = batched_system.run_attack_batched(
      AttackType::kDirect, cast.helper, cast.victim, 300, /*batch_size=*/64);

  EXPECT_EQ(batched.packets_sent, serial.packets_sent);
  EXPECT_EQ(batched.dropped_at_source, serial.dropped_at_source);
  EXPECT_EQ(batched.dropped_at_destination, serial.dropped_at_destination);
  EXPECT_EQ(batched.delivered, serial.delivered);
  EXPECT_EQ(batched.packets_sent, 300u);
  // The defense actually fires on this topology (not a vacuous comparison).
  EXPECT_GT(serial.dropped_at_source + serial.dropped_at_destination, 0u);
}

TEST(BatchPathTest, BatchSurvivesMidStreamControlPlaneChanges) {
  // TSan target: a sender thread drives send_batch with an explicit
  // timestamp (never touching the EventLoop) while the main thread lands
  // invocations, re-keys, and a teardown through the con-rou pipeline. The
  // engines' writer locks are the only thing between them — this test is
  // the proof they suffice. The sender cycles DAS and legacy origins over
  // several destination ASes' prefixes, so send_batch's lifetime route
  // cache keeps filling with new (origin, destination) pairs while the
  // transactions land.
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  auto& helper = system.deploy(cast.helper);
  system.settle();

  const auto order = system.dataset().ases_by_space_desc();
  struct Flow {
    AsNumber origin;
    std::vector<Ipv4Packet> packets;
  };
  std::vector<Flow> flows;
  for (std::size_t o = 1; o < 8; ++o) {  // order[1] is the helper DAS
    for (std::size_t d = 0; d < 8; ++d) {  // order[0] is the victim DAS
      flows.push_back({order[o], craft_mix(system, order[o], order[d])});
    }
  }
  const SimTime now = system.now();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> batches_sent{0};

  std::thread sender([&] {
    for (std::size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      const Flow& flow = flows[k % flows.size()];
      PacketBatch batch;
      batch.reserve(flow.packets.size());
      for (const Ipv4Packet& p : flow.packets) batch.add(p);
      const auto results = system.send_batch(flow.origin, batch, now);
      ASSERT_EQ(results.size(), flow.packets.size());
      batches_sent.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Don't start the churn until the sender is demonstrably mid-stream (on a
  // single-core host the spawning thread can otherwise finish first).
  while (batches_sent.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  // Mid-stream control-plane churn. con_rou latency is 0, so every submit
  // applies synchronously on this thread, under the engine writer lock,
  // while the sender is inside process_outbound/process_inbound.
  for (int round = 0; round < 40; ++round) {
    victim.invoke_ddos_defense_all(/*spoofed_source=*/round % 2 == 1);
    TableTransaction rekey;
    rekey.set_verify_key(cast.helper, derive_key128(1000 + round),
                         /*retain_previous=*/true);
    victim.con_rou().submit(std::move(rekey));
    TableTransaction finish;
    finish.finish_rekey(cast.helper);
    victim.con_rou().submit(std::move(finish));
    helper.con_rou().submit(TableTransaction{});  // empty txn: epoch-only bump
  }
  helper.tear_down_peering(cast.victim, "mid-stream teardown");

  // A few more batches must flow against the post-teardown tables before
  // the stream winds down.
  const std::size_t churned = batches_sent.load(std::memory_order_relaxed);
  while (batches_sent.load(std::memory_order_relaxed) < churned + 2) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  sender.join();
  EXPECT_GT(batches_sent.load(), 0u);

  // Only after the sender is gone may the loop run again (undeploy drains
  // teardown messages through it).
  system.undeploy(cast.helper);
  EXPECT_FALSE(system.is_das(cast.helper));
  EXPECT_EQ(victim.tables().applied_epoch(),
            victim.con_rou().stats().last_epoch);
}

TEST(BatchPathTest, UndeployLeavesNoOrphanedStateBehind) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  arm_defense(system, cast);
  auto& victim = *system.controller(cast.victim);
  ASSERT_TRUE(victim.tables().key_s.has_key(cast.helper));

  system.undeploy(cast.helper);

  // The teardown propagated: the victim holds no key material for the
  // departed AS and its tables are exactly what the channel delivered.
  EXPECT_EQ(system.controller(cast.helper), nullptr);
  EXPECT_FALSE(victim.tables().key_s.has_key(cast.helper));
  EXPECT_FALSE(victim.tables().key_v.has_key(cast.helper));
  EXPECT_FALSE(victim.is_peer(cast.helper));
  EXPECT_EQ(victim.tables().applied_epoch(),
            victim.con_rou().stats().last_epoch);

  // The batch path keeps working; the departed AS is a legacy AS now.
  PacketBatch batch;
  for (const Ipv4Packet& p : craft_mix(system, cast.helper, cast.victim)) {
    batch.add(p);
  }
  const auto results = system.send_batch(cast.helper, batch);
  EXPECT_EQ(results.size(), batch.size());
}

}  // namespace
}  // namespace discs
