// Determinism regression: same seed + same batch stream ⇒ byte-identical
// results across two independent engine runs at four workers. This pins
// three properties the rework must not lose:
//  * the flow-hash partition and per-shard processing order are functions of
//    the input alone (no timing-dependent work stealing);
//  * the chunk autotuner feeds on occupancy only — never on wall-clock — so
//    chunk boundaries are reproducible;
//  * per-shard RNG streams advance identically, making RouterStats AND the
//    sampled flow-report ring (a NetFlow-style RingBuffer with eviction)
//    equal field-for-field between runs.
#include "dataplane/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ring.hpp"
#include "reference_router.hpp"

namespace discs {
namespace {

constexpr AsNumber kPeerAs = 100;
constexpr AsNumber kVictimAs = 200;

struct Env {
  RouterTables victim;
  RouterTables peer;

  Env() {
    auto fill = [](Pfx2AsTable& t) {
      t.add(*Prefix4::parse("10.0.0.0/8"), kPeerAs);
      t.add(*Prefix4::parse("20.0.0.0/8"), kVictimAs);
      t.add(*Prefix6::parse("2001:db8:aaaa::/48"), kPeerAs);
      t.add(*Prefix6::parse("2001:db8:bbbb::/48"), kVictimAs);
    };
    fill(victim.pfx2as);
    fill(peer.pfx2as);
    const Key128 key = derive_key128(1);
    peer.key_s.set_key(kVictimAs, key);
    victim.key_v.set_key(kPeerAs, key);
    peer.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpStamp, 0, kHour);
    victim.in_dst.install(*Prefix4::parse("20.0.0.0/8"),
                          DefenseFunction::kCdpVerify, 0, kHour);
    victim.in_dst.install(*Prefix6::parse("2001:db8:bbbb::/48"),
                          DefenseFunction::kCdpVerify, 0, kHour);
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

struct RunResult {
  std::vector<Verdict> verdicts;
  RouterStats stats;
  std::vector<FlowReport> flow_ring;  // snapshot after eviction
  std::uint64_t flow_total = 0;       // reports ever pushed (incl. evicted)
  std::size_t chunk_hint = 0;         // autotuner end state
};

// One full run: a fresh w4 engine in alarm mode with 1-in-4 sampling (the
// RNG-drawing path) fed the same seed-derived batch stream, flow reports
// landing in a 64-slot ring so eviction order matters too.
RunResult run_once(std::uint64_t seed) {
  Env env;
  EngineConfig config;
  config.shards = 4;
  config.rng_seed = 9;
  DataPlaneEngine engine(env.victim, kVictimAs, config);
  engine.set_alarm_mode(true);
  engine.set_sampling_rate(4);

  RunResult result;
  telemetry::RingBuffer<FlowReport> ring(64);
  engine.set_flow_sink([&](const FlowReport& r) { ring.push(r); });

  ReferenceRouter stamper(env.peer, kPeerAs, 3);
  Xoshiro256 rng(seed);
  constexpr SimTime kNow = kMinute;
  for (int b = 0; b < 20; ++b) {
    PacketBatch batch;
    for (std::size_t i = 0; i < 512; ++i) {
      if (rng.chance(0.3)) {
        // Unverifiable v6 claiming a peer source: spoofed, feeds sampling.
        batch.add(Ipv6Packet::make(rand6(rng, 0xaaaa), rand6(rng, 0xbbbb), 17,
                                   std::vector<std::uint8_t>(16)));
      } else if (rng.chance(0.5)) {
        Ipv4Packet p = Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                        rand4(rng, 0x14000000u), IpProto::kUdp,
                                        std::vector<std::uint8_t>(16));
        (void)stamper.outbound(p, kNow);  // genuine
        batch.add(std::move(p));
      } else {
        batch.add(Ipv4Packet::make(rand4(rng, 0x0a000000u),
                                   rand4(rng, 0x14000000u), IpProto::kUdp,
                                   std::vector<std::uint8_t>(16)));  // spoofed
      }
    }
    const std::vector<Verdict> verdicts = engine.process_inbound(batch, kNow);
    result.verdicts.insert(result.verdicts.end(), verdicts.begin(),
                           verdicts.end());
  }
  result.stats = engine.stats();
  result.flow_ring = ring.snapshot();
  result.flow_total = ring.total();
  result.chunk_hint = engine.chunk_hint();
  return result;
}

TEST(EngineDeterminismTest, TwoRunsAtW4AreByteIdentical) {
  const RunResult a = run_once(2024);
  const RunResult b = run_once(2024);

  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    ASSERT_EQ(a.verdicts[i], b.verdicts[i]) << "packet " << i;
  }
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.chunk_hint, b.chunk_hint);

  // The sampled flow-report ring matched report-for-report: same packets
  // sampled (same RNG draws), same eviction order, every field equal.
  EXPECT_EQ(a.flow_total, b.flow_total);
  ASSERT_EQ(a.flow_ring.size(), b.flow_ring.size());
  for (std::size_t i = 0; i < a.flow_ring.size(); ++i) {
    ASSERT_TRUE(a.flow_ring[i] == b.flow_ring[i]) << "flow report " << i;
  }
  // Sampling actually engaged: reports flowed and the ring wrapped.
  EXPECT_GT(a.flow_total, 64u);
  EXPECT_EQ(a.flow_ring.size(), 64u);
}

// A different seed must actually change the stream — guards against the
// helper accidentally pinning its own inputs.
TEST(EngineDeterminismTest, DifferentSeedsDiverge) {
  const RunResult a = run_once(2024);
  const RunResult b = run_once(4048);
  EXPECT_FALSE(a.stats == b.stats);
}

// Inline chunking oracle: a single-shard batch runs inline on the caller in
// autotuned ranges of at most max_chunk packets, so the walk stays
// cache-resident. Each range is one router batch walk, and each walk records
// the CMAC occupancy histogram once — so the histogram's count is the number
// of chunks the engine ran, a counter rather than a timing ratio.
TEST(EngineChunkingTest, InlineBatchRecordsOneCmacOccupancyPerChunk) {
  Env env;
  EngineConfig config;
  config.shards = 1;
  DataPlaneEngine engine(env.peer, kPeerAs, config);
  telemetry::MetricsRegistry registry;
  engine.bind_metrics(registry);

  const std::size_t max_chunk = EngineConfig{}.max_chunk;
  const std::size_t n = 10 * max_chunk + 3;
  Xoshiro256 rng(5);
  PacketBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.add(Ipv4Packet::make(rand4(rng, 0x0a000000u), rand4(rng, 0x14000000u),
                               IpProto::kUdp, std::vector<std::uint8_t>(16)));
  }
  const std::vector<Verdict> verdicts = engine.process_outbound(batch, kMinute);
  ASSERT_EQ(verdicts.size(), n);
  EXPECT_EQ(engine.stats().out_stamped, n);  // every packet took the CMAC walk

  // n / kChunksPerShard exceeds max_chunk, so the autotuner clamps to it.
  ASSERT_EQ(engine.chunk_hint(), max_chunk);
  const std::size_t chunks = (n + max_chunk - 1) / max_chunk;
  const telemetry::Histogram::Snapshot occupancy =
      registry.histogram("discs_engine_cmac_batch_occupancy", {}).snapshot();
  EXPECT_EQ(occupancy.count, chunks);
  EXPECT_DOUBLE_EQ(occupancy.sum, static_cast<double>(n));
  engine.unbind_metrics();
}

}  // namespace
}  // namespace discs
