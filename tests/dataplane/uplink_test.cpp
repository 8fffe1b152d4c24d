// Prioritized-uplink tests: the §I claim that DISCS verification enables
// priority queues under bandwidth exhaustion, which end-based collaboration
// (MEF) cannot.
#include "dataplane/uplink.hpp"

#include <gtest/gtest.h>

#include "batch_of_one.hpp"

namespace discs {
namespace {

constexpr auto kV = static_cast<std::size_t>(TrafficClass::kVerified);
constexpr auto kU = static_cast<std::size_t>(TrafficClass::kUnverifiable);
constexpr auto kD = static_cast<std::size_t>(TrafficClass::kDemoted);

TEST(UplinkTest, UncongestedLinkServesEverything) {
  const auto r = strict_priority_admit({100, 200, 300}, 1000);
  EXPECT_EQ(r.served, (std::array<std::uint64_t, 3>{100, 200, 300}));
  EXPECT_EQ(r.dropped, (std::array<std::uint64_t, 3>{0, 0, 0}));
}

TEST(UplinkTest, StrictPriorityProtectsVerifiedTraffic) {
  // 500 genuine verified + 5000 unverifiable attack on a 1000-packet link.
  const auto r = strict_priority_admit({500, 5000, 0}, 1000);
  EXPECT_EQ(r.served[kV], 500u);  // every genuine packet survives
  EXPECT_EQ(r.served[kU], 500u);  // the rest of the capacity
  EXPECT_EQ(r.dropped[kU], 4500u);
  EXPECT_DOUBLE_EQ(r.served_fraction(TrafficClass::kVerified), 1.0);
}

TEST(UplinkTest, DemotedClassOnlyGetsLeftovers) {
  const auto r = strict_priority_admit({400, 400, 400}, 1000);
  EXPECT_EQ(r.served[kV], 400u);
  EXPECT_EQ(r.served[kU], 400u);
  EXPECT_EQ(r.served[kD], 200u);
  EXPECT_EQ(r.dropped[kD], 200u);
}

TEST(UplinkTest, CapacityZeroDropsAll) {
  const auto r = strict_priority_admit({10, 10, 10}, 0);
  EXPECT_EQ(r.served, (std::array<std::uint64_t, 3>{0, 0, 0}));
}

TEST(UplinkTest, FifoSharesProportionally) {
  // Without verification everything shares one queue: genuine gets the same
  // loss rate as the flood.
  const auto r = fifo_admit({500, 5000, 0}, 1000);
  EXPECT_NEAR(r.served_fraction(TrafficClass::kVerified),
              r.served_fraction(TrafficClass::kUnverifiable), 0.02);
  EXPECT_LT(r.served_fraction(TrafficClass::kVerified), 0.2);
  // Totals are exact.
  EXPECT_EQ(r.served[kV] + r.served[kU] + r.served[kD], 1000u);
}

TEST(UplinkTest, FifoUncongestedIsLossless) {
  const auto r = fifo_admit({10, 20, 30}, 100);
  EXPECT_EQ(r.dropped, (std::array<std::uint64_t, 3>{0, 0, 0}));
}

TEST(UplinkTest, TheMefContrastQuantified) {
  // The §I scenario: a 10x overload. With DISCS the victim serves 100% of
  // verified genuine traffic; with MEF (no verification signal, FIFO) the
  // same genuine traffic suffers ~90% loss.
  const std::array<std::uint64_t, 3> offered{1000, 10000, 0};
  const auto discs = strict_priority_admit(offered, 1100);
  const auto mef = fifo_admit(offered, 1100);
  EXPECT_DOUBLE_EQ(discs.served_fraction(TrafficClass::kVerified), 1.0);
  EXPECT_LT(mef.served_fraction(TrafficClass::kVerified), 0.15);
}

TEST(UplinkTest, ClassificationFromVerdicts) {
  EXPECT_EQ(classify_for_uplink(Verdict::kPass, true), TrafficClass::kVerified);
  EXPECT_EQ(classify_for_uplink(Verdict::kPass, false),
            TrafficClass::kUnverifiable);
  EXPECT_EQ(classify_for_uplink(Verdict::kDropSpoofed, false),
            TrafficClass::kDemoted);
}

// End-to-end: classify real router verdicts into uplink classes during an
// attack and schedule the interval.
TEST(UplinkTest, EndToEndPrioritizationWithRealVerdicts) {
  RouterTables victim_tables;
  victim_tables.pfx2as.add(*Prefix4::parse("10.0.0.0/8"), 100);
  victim_tables.pfx2as.add(*Prefix4::parse("20.0.0.0/8"), 200);
  victim_tables.pfx2as.add(*Prefix4::parse("40.0.0.0/8"), 400);
  const Key128 key = derive_key128(3);
  victim_tables.key_v.set_key(100, key);
  victim_tables.in_dst.install(*Prefix4::parse("20.0.0.0/8"),
                               DefenseFunction::kCdpVerify, 0, kHour);
  BorderRouter victim(victim_tables, 200, 1);
  victim.set_alarm_mode(true);  // demote instead of drop
  const AesCmac mac(key);

  std::array<std::uint64_t, kTrafficClasses> offered{};
  auto feed = [&](Ipv4Packet packet, bool stamped) {
    if (stamped) ipv4_stamp(packet, mac);
    const auto before = victim.stats().in_verified;
    const auto sampled_before = victim.stats().in_spoof_sampled;
    const Verdict verdict = inbound_one(victim, packet, kMinute);
    const bool verified = victim.stats().in_verified > before;
    const bool demoted = victim.stats().in_spoof_sampled > sampled_before;
    const Verdict effective = demoted ? Verdict::kDropSpoofed : verdict;
    ++offered[static_cast<std::size_t>(classify_for_uplink(effective, verified))];
  };

  // 50 genuine stamped packets from the peer, 200 spoofed claiming the
  // peer, 100 unverifiable from a legacy AS.
  for (int k = 0; k < 50; ++k) {
    feed(Ipv4Packet::make(*Ipv4Address::parse("10.0.0.1"),
                          *Ipv4Address::parse("20.0.0.1"), IpProto::kUdp,
                          {std::uint8_t(k)}),
         true);
  }
  for (int k = 0; k < 200; ++k) {
    feed(Ipv4Packet::make(*Ipv4Address::parse("10.0.0.2"),
                          *Ipv4Address::parse("20.0.0.1"), IpProto::kUdp,
                          {std::uint8_t(k), 9}),
         false);
  }
  for (int k = 0; k < 100; ++k) {
    feed(Ipv4Packet::make(*Ipv4Address::parse("40.0.0.1"),
                          *Ipv4Address::parse("20.0.0.1"), IpProto::kUdp,
                          {std::uint8_t(k), 7}),
         false);
  }
  EXPECT_EQ(offered[kV], 50u);
  EXPECT_EQ(offered[kU], 100u);
  EXPECT_EQ(offered[kD], 200u);

  // A link with room for half the offered load: all genuine + all
  // unverifiable survive; the demoted flood eats the loss.
  const auto r = strict_priority_admit(offered, 175);
  EXPECT_EQ(r.served[kV], 50u);
  EXPECT_EQ(r.served[kU], 100u);
  EXPECT_EQ(r.served[kD], 25u);
}

}  // namespace
}  // namespace discs
