// Engine-vs-reference conformance suite: for randomized packet mixes
// (legit/spoofed, v4/v6, fragments, ICMP Time Exceeded, alarm mode on/off)
// the sharded DataPlaneEngine must return exactly the verdicts of
// ReferenceRouter (reference_router.hpp: a plain per-packet §V-C walk that
// shares no tuple, router or batched-CMAC code with the engine), its merged
// RouterStats must be identical, and every sink (alarm, flow report,
// ICMPv6) must emit the same multiset.
// The grid covers the single-worker bypass (w1), the persistent-worker
// path (w2/w4/w8 — oversubscribed on small hosts, which is exactly how the
// park/doorbell protocol gets exercised under preemption), ring-wraparound
// configs, and degenerate batch sizes.
#include "dataplane/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "net/icmp.hpp"
#include "reference_router.hpp"

namespace discs {
namespace {

Prefix4 pfx4(const char* text) { return *Prefix4::parse(text); }
Prefix6 pfx6(const char* text) { return *Prefix6::parse(text); }

constexpr AsNumber kPeerAs = 100;
constexpr AsNumber kVictimAs = 200;
constexpr AsNumber kLegacyAs = 300;

// The table set of the victim AS (engine + reference share it) plus the
// peer AS's tables, from which a reference router mints marked traffic.
struct Env {
  RouterTables victim;
  RouterTables peer;
  AesCmac rogue_mac{derive_key128(0xbad)};  // an attacker's guessed key

  Env() {
    auto fill = [](Pfx2AsTable& t) {
      t.add(*Prefix4::parse("10.0.0.0/8"), kPeerAs);
      t.add(*Prefix4::parse("20.0.0.0/8"), kVictimAs);
      t.add(*Prefix4::parse("30.0.0.0/8"), kLegacyAs);
      t.add(*Prefix6::parse("2001:db8:aaaa::/48"), kPeerAs);
      t.add(*Prefix6::parse("2001:db8:bbbb::/48"), kVictimAs);
      t.add(*Prefix6::parse("2001:db8:cccc::/48"), kLegacyAs);
    };
    fill(victim.pfx2as);
    fill(peer.pfx2as);

    const Key128 k_pv = derive_key128(1);  // peer stamps -> victim verifies
    const Key128 k_vp = derive_key128(2);  // victim stamps -> peer verifies
    peer.key_s.set_key(kVictimAs, k_pv);
    victim.key_v.set_key(kPeerAs, k_pv);
    victim.key_s.set_key(kPeerAs, k_vp);
    peer.key_v.set_key(kVictimAs, k_vp);

    // Peer egress: DP + CDP-stamp toward the victim's prefixes.
    for (const char* p : {"20.0.0.0/8"}) {
      peer.out_dst.install(pfx4(p), DefenseFunction::kDp, 0, kHour);
      peer.out_dst.install(pfx4(p), DefenseFunction::kCdpStamp, 0, kHour);
    }
    peer.out_dst.install(pfx6("2001:db8:bbbb::/48"), DefenseFunction::kCdpStamp,
                         0, kHour);

    // Victim ingress: CDP-verify on its own prefixes.
    victim.in_dst.install(pfx4("20.0.0.0/8"), DefenseFunction::kCdpVerify, 0,
                          kHour);
    victim.in_dst.install(pfx6("2001:db8:bbbb::/48"),
                          DefenseFunction::kCdpVerify, 0, kHour);

    // Victim egress (outbound phase): CSP-stamp its own sources, DP toward
    // the peer so spoofed-source egress gets filtered.
    victim.out_src.install(pfx4("20.0.0.0/8"), DefenseFunction::kCspStamp, 0,
                           kHour);
    victim.out_src.install(pfx6("2001:db8:bbbb::/48"),
                           DefenseFunction::kCspStamp, 0, kHour);
    victim.out_dst.install(pfx4("10.0.0.0/8"), DefenseFunction::kDp, 0, kHour);
    victim.out_dst.install(pfx6("2001:db8:aaaa::/48"), DefenseFunction::kDp, 0,
                           kHour);
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

std::vector<std::uint8_t> rand_payload(Xoshiro256& rng, std::size_t max) {
  std::vector<std::uint8_t> payload(rng.below(max));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  return payload;
}

// An inbound mix as seen at the victim's border: genuinely stamped peer
// traffic, spoofed traffic (wrong key or no mark), legacy traffic, fragments
// and ICMP Time Exceeded messages quoting stamped headers.
std::vector<BatchPacket> inbound_mix(Env& env, Xoshiro256& rng, std::size_t n,
                                     SimTime now) {
  ReferenceRouter stamper(env.peer, kPeerAs, rng.next());
  std::vector<BatchPacket> packets;
  packets.reserve(n);
  while (packets.size() < n) {
    const bool v6 = rng.chance(0.35);
    const std::uint64_t kind = rng.below(10);
    if (v6) {
      Ipv6Packet p = Ipv6Packet::make(
          rand6(rng, kind >= 8 ? 0xcccc : 0xaaaa), rand6(rng, 0xbbbb),
          /*upper_proto=*/17, rand_payload(rng, 64));
      if (kind < 5) {
        if (stamper.outbound(p, now) != Verdict::kPass) continue;
      } else if (kind < 7) {
        (void)ipv6_stamp(p, env.rogue_mac, 1500);  // spoofed, guessed key
      } else if (kind == 9) {
        // ICMPv6 Time Exceeded quoting a victim->peer stamped packet.
        Ipv6Packet offending = Ipv6Packet::make(rand6(rng, 0xbbbb),
                                                rand6(rng, 0xaaaa), 17,
                                                rand_payload(rng, 32));
        ReferenceRouter out(env.victim, kVictimAs, rng.next());
        if (out.outbound(offending, now) != Verdict::kPass) continue;
        p = build_time_exceeded_v6(offending, rand6(rng, 0xcccc));
      }  // else: unstamped — spoofed (kind 7) or legacy source (kind 8)
      packets.emplace_back(std::move(p));
    } else {
      Ipv4Packet p = Ipv4Packet::make(
          rand4(rng, kind >= 8 ? 0x1e000000u : 0x0a000000u),
          rand4(rng, 0x14000000u), IpProto::kUdp, rand_payload(rng, 64));
      if (rng.chance(0.2)) {  // fragment bits survive stamping
        p.header.flags |= 0x1;
        p.header.fragment_offset =
            static_cast<std::uint16_t>(rng.below(1u << 13));
        p.header.refresh_checksum();
      }
      if (kind < 5) {
        if (stamper.outbound(p, now) != Verdict::kPass) continue;
      } else if (kind < 7) {
        ipv4_stamp(p, env.rogue_mac);
      } else if (kind == 9) {
        // ICMP Time Exceeded quoting a victim->peer stamped packet.
        Ipv4Packet offending =
            Ipv4Packet::make(rand4(rng, 0x14000000u), rand4(rng, 0x0a000000u),
                             IpProto::kUdp, rand_payload(rng, 32));
        ReferenceRouter out(env.victim, kVictimAs, rng.next());
        if (out.outbound(offending, now) != Verdict::kPass) continue;
        p = build_time_exceeded_v4(offending, rand4(rng, 0x1e000000u));
      }  // else: unmarked — spoofed (kind 7) or legacy source (kind 8)
      packets.emplace_back(std::move(p));
    }
  }
  return packets;
}

// An outbound mix leaving the victim: genuine local sources (some
// fragmented, some v6 payloads straddling the MTU stamping limit) and
// spoofed sources that DP must filter.
std::vector<BatchPacket> outbound_mix(Env&, Xoshiro256& rng, std::size_t n) {
  std::vector<BatchPacket> packets;
  packets.reserve(n);
  while (packets.size() < n) {
    const bool v6 = rng.chance(0.4);
    const bool spoofed_src = rng.chance(0.25);
    if (v6) {
      // Payload sizes straddle the MTU-8 stamping threshold so both the
      // stamped and the Packet Too Big outcome occur.
      const std::size_t payload =
          rng.chance(0.3) ? 1440 + rng.below(40) : rng.below(64);
      Ipv6Packet p = Ipv6Packet::make(
          rand6(rng, spoofed_src ? 0xcccc : 0xbbbb), rand6(rng, 0xaaaa), 17,
          std::vector<std::uint8_t>(payload));
      packets.emplace_back(std::move(p));
    } else {
      Ipv4Packet p = Ipv4Packet::make(
          rand4(rng, spoofed_src ? 0x1e000000u : 0x14000000u),
          rand4(rng, 0x0a000000u), IpProto::kUdp, rand_payload(rng, 64));
      if (rng.chance(0.25)) {
        p.header.flags |= 0x1;
        p.header.refresh_checksum();
      }
      packets.emplace_back(std::move(p));
    }
  }
  return packets;
}

// Serialized form with the IPv4 mark fields (IPID + fragment offset low
// bits) and checksum masked out: verified/erased marks are re-randomized
// from each router's own RNG stream, so those bytes legitimately differ
// between runs.
std::vector<std::uint8_t> canonical(const BatchPacket& packet) {
  return std::visit(
      [](const auto& p) {
        std::vector<std::uint8_t> wire = p.serialize();
        if constexpr (std::is_same_v<std::decay_t<decltype(p)>, Ipv4Packet>) {
          wire[4] = wire[5] = 0;       // identification
          wire[6] &= 0xe0;             // keep flags, zero offset high bits
          wire[7] = 0;                 // offset low bits
          wire[10] = wire[11] = 0;     // checksum (depends on the above)
        }
        return wire;
      },
      packet);
}

// Sortable canonical form of a FlowReport: every field participates, so two
// runs emitting the same multiset of reports produce the same sorted list.
std::string flow_key(const FlowReport& r) {
  std::string key = std::to_string(r.time) + '|' +
                    std::to_string(r.source_as) + '|' +
                    (r.inbound ? "in|" : "out|");
  key += r.ipv6 ? r.src6.to_string() + '>' + r.dst6.to_string()
                : r.src4.to_string() + '>' + r.dst4.to_string();
  key += '|' + std::to_string(r.functions) + '|' +
         std::to_string(static_cast<int>(r.verdict)) + '|' +
         std::to_string(r.sample_rate);
  return key;
}

struct Outcome {
  std::vector<Verdict> verdicts;
  RouterStats stats;
  std::vector<std::pair<AsNumber, bool>> alarms;  // (source_as, inbound)
  std::vector<std::vector<std::uint8_t>> icmp6;   // serialized PTB messages
  std::vector<std::string> flows;                 // canonical FlowReports
};

Outcome run_reference(Env& env, const std::vector<BatchPacket>& pristine,
                      bool outbound, bool alarm_mode, SimTime now) {
  Outcome out;
  std::vector<BatchPacket> packets = pristine;
  ReferenceRouter router(env.victim, kVictimAs, /*rng_seed=*/7);
  router.set_alarm_mode(alarm_mode);
  router.set_alarm_sink([&](const AlarmSample& s) {
    out.alarms.emplace_back(s.source_as, s.inbound);
  });
  router.set_icmp6_sink(
      [&](Ipv6Packet p) { out.icmp6.push_back(p.serialize()); });
  router.set_flow_sink(
      [&](const FlowReport& r) { out.flows.push_back(flow_key(r)); });
  for (BatchPacket& packet : packets) {
    out.verdicts.push_back(outbound ? router.outbound(packet, now)
                                    : router.inbound(packet, now));
  }
  out.stats = router.stats();
  return out;
}

Outcome run_engine(Env& env, const std::vector<BatchPacket>& pristine,
                   bool outbound, bool alarm_mode, SimTime now,
                   std::size_t shards, std::size_t batch_size,
                   EngineConfig config = {}) {
  Outcome out;
  config.shards = shards;
  config.rng_seed = 7;
  DataPlaneEngine engine(env.victim, kVictimAs, config);
  engine.set_alarm_mode(alarm_mode);
  engine.set_alarm_sink([&](const AlarmSample& s) {
    out.alarms.emplace_back(s.source_as, s.inbound);
  });
  engine.set_icmp6_sink(
      [&](Ipv6Packet p) { out.icmp6.push_back(p.serialize()); });
  engine.set_flow_sink(
      [&](const FlowReport& r) { out.flows.push_back(flow_key(r)); });
  // Feed the traffic as a sequence of batches, as a live pipeline would.
  for (std::size_t at = 0; at < pristine.size(); at += batch_size) {
    PacketBatch batch;
    const std::size_t end = std::min(pristine.size(), at + batch_size);
    for (std::size_t i = at; i < end; ++i) batch.add(BatchPacket(pristine[i]));
    const std::vector<Verdict> verdicts =
        outbound ? engine.process_outbound(batch, now)
                 : engine.process_inbound(batch, now);
    out.verdicts.insert(out.verdicts.end(), verdicts.begin(), verdicts.end());
  }
  out.stats = engine.stats();
  return out;
}

void expect_equivalent(Outcome& reference, Outcome& engine) {
  ASSERT_EQ(reference.verdicts.size(), engine.verdicts.size());
  for (std::size_t i = 0; i < reference.verdicts.size(); ++i) {
    ASSERT_EQ(reference.verdicts[i], engine.verdicts[i]) << "packet " << i;
  }
  EXPECT_EQ(reference.stats, engine.stats);
  // Sinks fire in shard-major order inside a batch; compare as multisets.
  std::sort(reference.alarms.begin(), reference.alarms.end());
  std::sort(engine.alarms.begin(), engine.alarms.end());
  EXPECT_EQ(reference.alarms, engine.alarms);
  std::sort(reference.icmp6.begin(), reference.icmp6.end());
  std::sort(engine.icmp6.begin(), engine.icmp6.end());
  EXPECT_EQ(reference.icmp6, engine.icmp6);
  std::sort(reference.flows.begin(), reference.flows.end());
  std::sort(engine.flows.begin(), engine.flows.end());
  EXPECT_EQ(reference.flows, engine.flows);
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(EngineEquivalence, InboundMatchesReference) {
  const auto [seed, shards] = GetParam();
  Env env;
  Xoshiro256 rng(seed);
  const SimTime now = kMinute;
  const auto mix = inbound_mix(env, rng, 10'000, now);
  for (const bool alarm_mode : {false, true}) {
    Outcome reference = run_reference(env, mix, /*outbound=*/false, alarm_mode, now);
    Outcome engine = run_engine(env, mix, /*outbound=*/false, alarm_mode, now,
                                shards, /*batch_size=*/512);
    expect_equivalent(reference, engine);
  }
}

TEST_P(EngineEquivalence, OutboundMatchesReference) {
  const auto [seed, shards] = GetParam();
  Env env;
  Xoshiro256 rng(seed ^ 0x5a5a);
  const SimTime now = kMinute;
  const auto mix = outbound_mix(env, rng, 10'000);
  Outcome reference = run_reference(env, mix, /*outbound=*/true, false, now);
  Outcome engine = run_engine(env, mix, /*outbound=*/true, false, now, shards,
                              /*batch_size=*/512);
  expect_equivalent(reference, engine);
}

// Sealed-path conformance: the same mixes through an engine whose tables
// were sealed — so lookups ride the compiled DIR-24-8/flat engines — must
// produce exactly the verdicts, stats, and sink multisets of the reference
// router walking the build tries. Env construction is deterministic, so the
// two Envs hold identical tables and keys; only the lookup substrate differs.
TEST_P(EngineEquivalence, SealedTablesMatchTriePath) {
  const auto [seed, shards] = GetParam();
  Env trie_env;
  Env sealed_env;
  sealed_env.victim.seal();
  Xoshiro256 rng(seed ^ 0xc0ffee);
  const SimTime now = kMinute;
  const auto in_mix = inbound_mix(trie_env, rng, 5'000, now);
  for (const bool alarm_mode : {false, true}) {
    Outcome reference =
        run_reference(trie_env, in_mix, /*outbound=*/false, alarm_mode, now);
    Outcome engine = run_engine(sealed_env, in_mix, /*outbound=*/false,
                                alarm_mode, now, shards, /*batch_size=*/512);
    expect_equivalent(reference, engine);
  }
  const auto out_mix = outbound_mix(trie_env, rng, 5'000);
  Outcome reference =
      run_reference(trie_env, out_mix, /*outbound=*/true, false, now);
  Outcome engine = run_engine(sealed_env, out_mix, /*outbound=*/true, false,
                              now, shards, /*batch_size=*/512);
  expect_equivalent(reference, engine);
}

// w1 exercises the inline bypass; w2/w4/w8 exercise the persistent-worker
// rings (oversubscribed on small CI hosts, which adds preemption right in
// the middle of the park/doorbell handshake — the interesting schedule).
INSTANTIATE_TEST_SUITE_P(
    SeedsAndWorkers, EngineEquivalence,
    ::testing::Combine(::testing::Values(3u, 17u, 99u),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})));

// Degenerate batch shapes at full worker count: empty batches (must not
// wake anyone), single packets, and batch sizes straddling the ring
// capacity. A 2-slot ring with a pinned 1-packet chunk forces index
// wraparound and producer backpressure within a single 10k-packet run.
class EngineEdgeCases : public ::testing::Test {
 protected:
  static EngineConfig tiny_ring() {
    EngineConfig config;
    config.ring_slots = 2;   // capacity 2 after power-of-two rounding
    config.min_chunk = 1;    // pinned: every packet is its own work item
    config.max_chunk = 1;
    return config;
  }
};

TEST_F(EngineEdgeCases, EmptyAndSinglePacketBatches) {
  Env env;
  Xoshiro256 rng(7);
  const SimTime now = kMinute;
  const auto mix = inbound_mix(env, rng, 64, now);
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{64}}) {
    Outcome reference = run_reference(env, mix, /*outbound=*/false, false, now);
    Outcome engine =
        run_engine(env, mix, /*outbound=*/false, false, now, 4, batch_size);
    expect_equivalent(reference, engine);
  }
  // A zero-size batch is a no-op: no verdicts, no stats, no worker wakeups.
  DataPlaneEngine engine(env.victim, kVictimAs, EngineConfig{.shards = 4});
  PacketBatch empty;
  EXPECT_TRUE(engine.process_inbound(empty, now).empty());
  EXPECT_EQ(engine.stats(), RouterStats{});
  EXPECT_EQ(engine.worker_stats().chunks, 0u);
  // One-packet batches each occupy one shard and run inline on the caller:
  // the lazily spawned workers never start and no doorbell ever rings.
  for (const BatchPacket& packet : mix) {
    PacketBatch one;
    one.add(BatchPacket(packet));
    (void)engine.process_inbound(one, now);
  }
  EXPECT_EQ(engine.stats().in_processed, mix.size());
  EXPECT_FALSE(engine.workers_running());
  EXPECT_EQ(engine.worker_stats().doorbells, 0u);
  EXPECT_EQ(engine.worker_stats().chunks, 0u);
}

TEST_F(EngineEdgeCases, RingWraparoundUnderBackpressure) {
  Env env;
  Xoshiro256 rng(23);
  const SimTime now = kMinute;
  const auto mix = inbound_mix(env, rng, 10'000, now);
  Outcome reference = run_reference(env, mix, /*outbound=*/false, true, now);
  Outcome engine = run_engine(env, mix, /*outbound=*/false, true, now,
                              /*shards=*/4, /*batch_size=*/512, tiny_ring());
  expect_equivalent(reference, engine);
}

TEST_F(EngineEdgeCases, BatchSizesStraddlingRingCapacity) {
  Env env;
  Xoshiro256 rng(31);
  const SimTime now = kMinute;
  const auto mix = outbound_mix(env, rng, 2'000);
  EngineConfig config = tiny_ring();
  // Per-shard occupancy hovers around ring capacity (2) and one below/above
  // it as the batch size walks 1..5 packets.
  for (const std::size_t batch_size :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    Outcome reference = run_reference(env, mix, /*outbound=*/true, false, now);
    Outcome engine = run_engine(env, mix, /*outbound=*/true, false, now,
                                /*shards=*/4, batch_size, config);
    expect_equivalent(reference, engine);
  }
}

// The round trip peer-stamp -> engine-verify leaves genuine packets intact:
// v6 packets byte-identical, v4 packets identical outside the mark fields.
TEST(EngineRoundTrip, GenuineTrafficSurvivesAndMarksAreErased) {
  Env env;
  Xoshiro256 rng(42);
  const SimTime now = kMinute;
  ReferenceRouter stamper(env.peer, kPeerAs, 5);

  PacketBatch batch;
  std::vector<BatchPacket> originals;
  for (int i = 0; i < 500; ++i) {
    if (rng.chance(0.5)) {
      Ipv6Packet p = Ipv6Packet::make(rand6(rng, 0xaaaa), rand6(rng, 0xbbbb),
                                      17, rand_payload(rng, 48));
      originals.emplace_back(p);
      EXPECT_EQ(stamper.outbound(p, now), Verdict::kPass);
      batch.add(std::move(p));
    } else {
      Ipv4Packet p = Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                      rand4(rng, 0x14000000u), IpProto::kUdp,
                                      rand_payload(rng, 48));
      originals.emplace_back(p);
      EXPECT_EQ(stamper.outbound(p, now), Verdict::kPass);
      batch.add(std::move(p));
    }
  }

  DataPlaneEngine engine(env.victim, kVictimAs, EngineConfig{.shards = 4});
  const auto verdicts = engine.process_inbound(batch, now);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(verdicts[i], Verdict::kPass) << i;
    // The verified mark was erased: the packet equals the pre-stamp original
    // modulo the randomized IPv4 mark fields.
    EXPECT_EQ(canonical(batch[i]), canonical(originals[i])) << i;
  }
  EXPECT_EQ(engine.stats().in_verified, 500u);
}

}  // namespace
}  // namespace discs
