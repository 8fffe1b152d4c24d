// Field-completeness guard for the mergeable RouterStats struct, plus the
// end-to-end check that DataPlaneEngine::bind_metrics exposes it through the
// registry.
//
// The merge operator (RouterStats::operator+=) is written by hand, so a
// newly added field can silently be dropped from shard merges and scrapes.
// The struct is an all-uint64_t aggregate, which lets the tests derive the
// field count from sizeof and walk every field through std::bit_cast:
// adding a field without updating the merge (or the expected count here)
// fails loudly.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/router.hpp"
#include "telemetry/metrics.hpp"
#include "../dataplane/reference_router.hpp"

namespace discs {
namespace {

// ---- RouterStats ---------------------------------------------------------

constexpr std::size_t kRouterStatsFields =
    sizeof(RouterStats) / sizeof(std::uint64_t);
static_assert(sizeof(RouterStats) == kRouterStatsFields * sizeof(std::uint64_t),
              "RouterStats must stay an all-uint64_t aggregate for the "
              "field-completeness tests (and the scrape collectors) to work");

using RouterStatsArray = std::array<std::uint64_t, kRouterStatsFields>;

RouterStats distinct_router_stats() {
  RouterStatsArray raw{};
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = 1000 + i;
  return std::bit_cast<RouterStats>(raw);
}

TEST(RouterStatsTest, PlusEqualsCoversEveryField) {
  const RouterStats a = distinct_router_stats();
  RouterStats sum = a;
  sum += a;
  const auto folded = std::bit_cast<RouterStatsArray>(sum);
  const auto original = std::bit_cast<RouterStatsArray>(a);
  for (std::size_t i = 0; i < folded.size(); ++i) {
    EXPECT_EQ(folded[i], 2 * original[i])
        << "RouterStats field #" << i
        << " is missing from operator+= (add it to the merge AND to the "
           "engine's telemetry collector)";
  }
}

TEST(RouterStatsTest, MergingIntoZeroIsIdentity) {
  const RouterStats a = distinct_router_stats();
  RouterStats zero;
  zero += a;
  EXPECT_EQ(zero, a);  // the defaulted operator== sees every field
}

// ---- Engine scrape end to end -------------------------------------------

/// Two-AS workload small enough for a unit test: AS 100 stamps toward
/// AS 200, whose engine verifies under a bound registry.
struct EngineFixture {
  RouterTables local;
  RouterTables peer;

  EngineFixture() {
    local.pfx2as.add(*Prefix4::parse("10.0.0.0/8"), 100);
    local.pfx2as.add(*Prefix4::parse("20.0.0.0/8"), 200);
    peer.pfx2as.add(*Prefix4::parse("10.0.0.0/8"), 100);
    peer.pfx2as.add(*Prefix4::parse("20.0.0.0/8"), 200);
    const Key128 key = derive_key128(1);
    peer.key_s.set_key(200, key);
    local.key_v.set_key(100, key);
    peer.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpStamp, 0, kHour);
    local.in_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpVerify, 0, kHour);
  }

  PacketBatch stamped_batch(std::size_t n, bool valid_marks) {
    ReferenceRouter stamper(peer, 100, 7);
    PacketBatch batch;
    Xoshiro256 rng(3);
    for (std::size_t i = 0; i < n; ++i) {
      auto p = Ipv4Packet::make(
          Ipv4Address(0x0a000000u |
                      (static_cast<std::uint32_t>(rng.next()) & 0xffffff)),
          Ipv4Address(0x14000000u |
                      (static_cast<std::uint32_t>(rng.next()) & 0xffffff)),
          IpProto::kUdp, std::vector<std::uint8_t>(16));
      if (valid_marks) (void)stamper.outbound(p, kMinute);
      batch.add(BatchPacket(std::move(p)));
    }
    return batch;
  }
};

double metric_value(const telemetry::MetricsSnapshot& snap,
                    const std::string& name, const telemetry::Labels& labels) {
  for (const auto& m : snap.metrics) {
    if (m.name == name && m.labels == labels) return m.value;
  }
  return -1;
}

TEST(EngineMetricsTest, BoundEngineExportsVerdictsStatsAndHistograms) {
  EngineFixture fx;
  telemetry::MetricsRegistry reg;
  EngineConfig config;
  config.shards = 2;
  DataPlaneEngine engine(fx.local, 200, config);
  engine.bind_metrics(reg, {{"as", "200"}});
  ASSERT_TRUE(engine.metrics_bound());

  constexpr std::size_t kValid = 96, kSpoofed = 32;
  PacketBatch good = fx.stamped_batch(kValid, /*valid_marks=*/true);
  PacketBatch bad = fx.stamped_batch(kSpoofed, /*valid_marks=*/false);
  (void)engine.process_inbound(good, kMinute);
  (void)engine.process_inbound(bad, kMinute);

  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(
      metric_value(snap, "discs_engine_verdicts_total",
                   {{"as", "200"}, {"verdict", "pass"}}),
      static_cast<double>(kValid));
  EXPECT_DOUBLE_EQ(
      metric_value(snap, "discs_engine_verdicts_total",
                   {{"as", "200"}, {"verdict", "drop_spoofed"}}),
      static_cast<double>(kSpoofed));
  // The pull-mode view over RouterStats agrees with the struct itself.
  EXPECT_DOUBLE_EQ(metric_value(snap, "discs_router_in_processed_total",
                                {{"as", "200"}}),
                   static_cast<double>(engine.stats().in_processed));
  EXPECT_DOUBLE_EQ(metric_value(snap, "discs_router_in_verified_total",
                                {{"as", "200"}}),
                   static_cast<double>(kValid));
  // Native histograms saw both batches.
  for (const auto& m : snap.metrics) {
    if (m.name == "discs_engine_batch_size") {
      EXPECT_EQ(m.histogram.count, 2u);
    }
  }
  // The AES backend info gauge is stamped with the active backend label.
  bool backend_seen = false;
  for (const auto& m : snap.metrics) {
    backend_seen = backend_seen || m.name == "discs_aes_backend_info";
  }
  EXPECT_TRUE(backend_seen);
}

TEST(EngineMetricsTest, UnbindRemovesCollectorButKeepsInstruments) {
  EngineFixture fx;
  telemetry::MetricsRegistry reg;
  DataPlaneEngine engine(fx.local, 200);
  engine.bind_metrics(reg);
  PacketBatch batch = fx.stamped_batch(8, true);
  (void)engine.process_inbound(batch, kMinute);
  engine.unbind_metrics();
  EXPECT_FALSE(engine.metrics_bound());

  const auto snap = reg.snapshot();
  // Collector views (discs_router_*) are gone...
  EXPECT_DOUBLE_EQ(metric_value(snap, "discs_router_in_processed_total", {}),
                   -1);
  // ...but the native instruments (and their recorded data) persist.
  EXPECT_DOUBLE_EQ(metric_value(snap, "discs_engine_verdicts_total",
                                {{"verdict", "pass"}}),
                   8.0);
}

TEST(EngineMetricsTest, RebindAfterUnbindIsSafe) {
  EngineFixture fx;
  telemetry::MetricsRegistry reg;
  DataPlaneEngine engine(fx.local, 200);
  engine.bind_metrics(reg);
  engine.bind_metrics(reg);  // re-bind replaces, no duplicate collectors
  PacketBatch batch = fx.stamped_batch(4, true);
  (void)engine.process_inbound(batch, kMinute);
  const auto snap = reg.snapshot();
  std::size_t router_views = 0;
  for (const auto& m : snap.metrics) {
    router_views += m.name == "discs_router_in_processed_total";
  }
  EXPECT_EQ(router_views, 1u);
}

}  // namespace
}  // namespace discs
