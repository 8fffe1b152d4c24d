// §IV-F alarm-mode flow reports end to end: BorderRouter emission under the
// shared sampling decision, the RingBuffer's newest-wins eviction, engine
// sink forwarding, and the victim controller's scrape API
// (enable_flow_reports / alarm_reports / flow_reports_total).
#include <gtest/gtest.h>

#include <vector>

#include "control/controller.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/router.hpp"
#include "telemetry/ring.hpp"
#include "../dataplane/batch_of_one.hpp"

namespace discs {
namespace {

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }
Ipv4Address ip(const char* t) { return *Ipv4Address::parse(t); }

/// AS 100 stamps toward AS 200; AS 200 verifies. Unmarked packets claiming
/// 10/8 sources are identified as spoofed at the victim border.
struct VerifyFixture {
  RouterTables tables;

  VerifyFixture() {
    tables.pfx2as.add(pfx("10.0.0.0/8"), 100);
    tables.pfx2as.add(pfx("20.0.0.0/8"), 200);
    tables.key_v.set_key(100, derive_key128(5));
    tables.in_dst.install(pfx("20.0.0.0/8"), DefenseFunction::kCdpVerify, 0,
                          kHour);
  }

  static Ipv4Packet spoofed(std::uint32_t salt) {
    return Ipv4Packet::make(Ipv4Address(0x0a000000u | salt),
                            Ipv4Address(0x14000000u | (salt ^ 0x7)),
                            IpProto::kUdp, std::vector<std::uint8_t>(8));
  }
};

TEST(FlowReportTest, DropModeEmitsReportWithDropVerdict) {
  VerifyFixture fx;
  BorderRouter router(fx.tables, 200, 1);
  std::vector<FlowReport> reports;
  router.set_flow_sink([&](const FlowReport& r) { reports.push_back(r); });

  auto packet = VerifyFixture::spoofed(1);
  EXPECT_TRUE(is_drop(inbound_one(router, packet, kMinute)));

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, Verdict::kDropSpoofed);
  EXPECT_EQ(reports[0].source_as, 100u);
  EXPECT_TRUE(reports[0].inbound);
  EXPECT_FALSE(reports[0].ipv6);
  EXPECT_EQ(reports[0].src4, Ipv4Address(0x0a000001u));
  EXPECT_EQ(reports[0].time, kMinute);
  EXPECT_EQ(reports[0].sample_rate, 1u);
  EXPECT_NE(reports[0].functions & to_mask(DefenseFunction::kCdpVerify), 0u);
}

TEST(FlowReportTest, AlarmModeEmitsPassVerdictAndForwardsPacket) {
  VerifyFixture fx;
  BorderRouter router(fx.tables, 200, 1);
  router.set_alarm_mode(true);
  std::vector<FlowReport> reports;
  router.set_flow_sink([&](const FlowReport& r) { reports.push_back(r); });

  auto packet = VerifyFixture::spoofed(2);
  EXPECT_FALSE(is_drop(inbound_one(router, packet, kMinute)));

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].verdict, Verdict::kPass);
  EXPECT_EQ(router.stats().in_spoof_sampled, 1u);
}

TEST(FlowReportTest, SamplingRateThinsReportsAndStampsRate) {
  VerifyFixture fx;
  BorderRouter router(fx.tables, 200, 99);
  router.set_sampling_rate(4);
  std::vector<FlowReport> reports;
  router.set_flow_sink([&](const FlowReport& r) { reports.push_back(r); });

  constexpr std::uint32_t kPackets = 400;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    auto packet = VerifyFixture::spoofed(i);
    (void)inbound_one(router, packet, kMinute);
  }
  EXPECT_EQ(router.stats().in_spoof_dropped, kPackets);
  EXPECT_GT(reports.size(), 0u);
  EXPECT_LT(reports.size(), kPackets / 2);  // ~1 in 4 expected
  for (const auto& r : reports) EXPECT_EQ(r.sample_rate, 4u);
}

// Adding a flow sink must not consume extra randomness: alarm-sample and
// flow-report emission share one sampling draw, so two identically-seeded
// routers — one with only an alarm sink, one with both sinks — sample the
// exact same packets. The serial-vs-batch equivalence suites depend on it.
TEST(FlowReportTest, FlowSinkDoesNotPerturbSamplingStream) {
  VerifyFixture fx;
  BorderRouter alarm_only(fx.tables, 200, 1234);
  BorderRouter both(fx.tables, 200, 1234);
  std::vector<SimTime> alarm_times_a, alarm_times_b;
  alarm_only.set_alarm_sink(
      [&](const AlarmSample& s) { alarm_times_a.push_back(s.time); });
  both.set_alarm_sink(
      [&](const AlarmSample& s) { alarm_times_b.push_back(s.time); });
  std::vector<FlowReport> reports;
  both.set_flow_sink([&](const FlowReport& r) { reports.push_back(r); });
  alarm_only.set_sampling_rate(8);
  both.set_sampling_rate(8);

  for (std::uint32_t i = 0; i < 256; ++i) {
    auto p1 = VerifyFixture::spoofed(i);
    auto p2 = VerifyFixture::spoofed(i);
    (void)inbound_one(alarm_only, p1, i * kMillisecond);
    (void)inbound_one(both, p2, i * kMillisecond);
  }
  EXPECT_EQ(alarm_only.stats(), both.stats());
  EXPECT_EQ(alarm_times_a, alarm_times_b);   // same packets sampled
  EXPECT_EQ(reports.size(), alarm_times_b.size());  // both sinks co-fire
}

TEST(FlowReportTest, EngineForwardsShardReportsThroughItsSink) {
  VerifyFixture fx;
  EngineConfig config;
  config.shards = 2;
  DataPlaneEngine engine(fx.tables, 200, config);
  std::vector<FlowReport> reports;
  engine.set_flow_sink([&](const FlowReport& r) { reports.push_back(r); });

  PacketBatch batch;
  constexpr std::uint32_t kPackets = 64;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    batch.add(BatchPacket(VerifyFixture::spoofed(i)));
  }
  (void)engine.process_inbound(batch, kMinute);
  EXPECT_EQ(reports.size(), kPackets);  // rate 1: every identified packet
  EXPECT_EQ(engine.stats().in_spoof_dropped, kPackets);
}

TEST(RingBufferTest, EvictsOldestAndCountsTotals) {
  telemetry::RingBuffer<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (int i = 1; i <= 5; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total(), 5u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0], 3);  // oldest surviving
  EXPECT_EQ(snap[2], 5);  // newest
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 5u);  // lifetime count survives clear
}

// ---- Controller scrape (§IV-F: victim's controller collects reports) ----

class ControllerFlowReportTest : public ::testing::Test {
 protected:
  ControllerFlowReportTest()
      : rpki_({{pfx("10.0.0.0/8"), {1}}, {pfx("20.0.0.0/8"), {2}}}),
        net_(loop_, 10 * kMillisecond) {}

  std::unique_ptr<Controller> make_controller(AsNumber as) {
    ControllerConfig cfg;
    cfg.as = as;
    cfg.seed = as * 1000 + 7;
    return std::make_unique<Controller>(cfg, loop_, net_, rpki_);
  }

  InternetDataset rpki_;
  EventLoop loop_;
  ConConNetwork net_;
};

TEST_F(ControllerFlowReportTest, VictimControllerCollectsReportsIntoRing) {
  auto c1 = make_controller(1);  // victim (10/8)
  auto c2 = make_controller(2);  // collaborating peer (20/8)
  c1->discover(c2->advertisement());
  c2->discover(c1->advertisement());
  loop_.run_until(loop_.now() + 30 * kSecond);
  ASSERT_TRUE(c1->is_peer(2));

  EXPECT_FALSE(c1->flow_reports_enabled());
  c1->enable_flow_reports(/*capacity=*/4);
  EXPECT_TRUE(c1->flow_reports_enabled());

  // Invoking installs CDP-verify on the victim's own In-Dst; unstamped
  // packets claiming the peer's space are then identified at our border.
  EXPECT_EQ(c1->invoke_ddos_defense(pfx("10.1.0.0/16"),
                                    /*spoofed_source=*/false, kHour),
            1u);
  loop_.run_until(loop_.now() + kSecond);  // bounded: expiry sweep is queued

  const SimTime now = loop_.now() + kMinute;
  constexpr std::uint32_t kPackets = 6;  // > ring capacity
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    // One-packet batch through the controller's engine, its only data plane.
    PacketBatch batch;
    batch.add(Ipv4Packet::make(ip("20.0.0.5"), Ipv4Address(0x0a010000u | i),
                               IpProto::kUdp, std::vector<std::uint8_t>(8)));
    EXPECT_TRUE(is_drop(c1->engine().process_inbound(batch, now)[0]));
  }

  EXPECT_EQ(c1->flow_reports_total(), kPackets);
  const auto reports = c1->alarm_reports();
  ASSERT_EQ(reports.size(), 4u);  // capacity bound, oldest evicted
  for (const auto& r : reports) {
    EXPECT_EQ(r.source_as, 2u);
    EXPECT_EQ(r.verdict, Verdict::kDropSpoofed);
    EXPECT_TRUE(r.inbound);
  }
  // Newest-wins: the surviving reports are the last four packets.
  EXPECT_EQ(reports.back().dst4, Ipv4Address(0x0a010000u | (kPackets - 1)));
}

}  // namespace
}  // namespace discs
