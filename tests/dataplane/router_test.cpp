// End-to-end border-router tests: two routers (a peer DAS and the victim
// DAS) exchanging packets through the §V-C processing flow, one packet per
// batch call.
#include "dataplane/router.hpp"

#include <gtest/gtest.h>

#include "batch_of_one.hpp"

namespace discs {
namespace {

constexpr AsNumber kPeerAs = 100;    // cooperating peer
constexpr AsNumber kVictimAs = 200;  // DAS under attack

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }
Ipv4Address ip(const char* t) { return *Ipv4Address::parse(t); }
Ipv6Address ip6(const char* t) { return *Ipv6Address::parse(t); }

// Shared address plan: peer = 10/8 (+2001:db8:a::/48),
// victim = 20/8 (+2001:db8:b::/48), stranger = 40/8.
void fill_pfx2as(Pfx2AsTable& t) {
  t.add(pfx("10.0.0.0/8"), kPeerAs);
  t.add(pfx("20.0.0.0/8"), kVictimAs);
  t.add(pfx("40.0.0.0/8"), 400);
  t.add(*Prefix6::parse("2001:db8:a::/48"), kPeerAs);
  t.add(*Prefix6::parse("2001:db8:b::/48"), kVictimAs);
}

class RouterPairTest : public ::testing::Test {
 protected:
  RouterPairTest()
      : peer_router_(peer_tables_, kPeerAs, 1),
        victim_router_(victim_tables_, kVictimAs, 2) {
    fill_pfx2as(peer_tables_.pfx2as);
    fill_pfx2as(victim_tables_.pfx2as);
    // Symmetric keys: key_{peer,victim} for peer->victim traffic and
    // key_{victim,peer} for the reverse (paper §IV-D naming).
    const Key128 k_pv = derive_key128(11);
    const Key128 k_vp = derive_key128(22);
    peer_tables_.key_s.set_key(kVictimAs, k_pv);
    victim_tables_.key_v.set_key(kPeerAs, k_pv);
    victim_tables_.key_s.set_key(kPeerAs, k_vp);
    peer_tables_.key_v.set_key(kVictimAs, k_vp);
  }

  /// Victim invokes DP+CDP for subnet 20.1/16 (d-DDoS defense): the peer
  /// filters + stamps outbound, the victim verifies inbound.
  void invoke_dp_cdp(SimTime start, SimTime end) {
    peer_tables_.out_dst.install(pfx("20.1.0.0/16"), DefenseFunction::kDp,
                                 start, end);
    peer_tables_.out_dst.install(pfx("20.1.0.0/16"), DefenseFunction::kCdpStamp,
                                 start, end);
    victim_tables_.in_dst.install(pfx("20.1.0.0/16"),
                                  DefenseFunction::kCdpVerify, start, end);
  }

  RouterTables peer_tables_;
  RouterTables victim_tables_;
  BorderRouter peer_router_;
  BorderRouter victim_router_;
  const SimTime now_ = 10 * kSecond;
};

TEST_F(RouterPairTest, GenuineTrafficPassesEndToEnd) {
  invoke_dp_cdp(0, kHour);
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                            {1, 2, 3});
  EXPECT_EQ(outbound_one(peer_router_, p, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().out_stamped, 1u);
  EXPECT_EQ(inbound_one(victim_router_, p, now_ + kMillisecond),
            Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_verified, 1u);
  EXPECT_TRUE(p.checksum_valid());
}

TEST_F(RouterPairTest, SpoofedPacketDroppedAtPeerEgress) {
  invoke_dp_cdp(0, kHour);
  // Agent inside the peer AS spoofing a stranger's source.
  auto p = Ipv4Packet::make(ip("40.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(outbound_one(peer_router_, p, now_), Verdict::kDropFiltered);
  EXPECT_EQ(peer_router_.stats().out_dropped, 1u);
}

TEST_F(RouterPairTest, UnstampedDirectSpoofDroppedAtVictim) {
  invoke_dp_cdp(0, kHour);
  // Attack traffic from a legacy AS spoofing the peer's addresses reaches
  // the victim without a mark; CDP-verify (src in peer) rejects it.
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kDropSpoofed);
  EXPECT_EQ(victim_router_.stats().in_spoof_dropped, 1u);
}

TEST_F(RouterPairTest, NonPeerSourcesPassUnverified) {
  invoke_dp_cdp(0, kHour);
  // Victim cannot judge traffic whose source is not a collaborator.
  auto p = Ipv4Packet::make(ip("40.0.0.7"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_passed_unverified, 1u);
}

TEST_F(RouterPairTest, TrafficOutsideVictimSubnetUntouched) {
  invoke_dp_cdp(0, kHour);
  auto p = Ipv4Packet::make(ip("40.0.0.1"), ip("20.2.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(outbound_one(peer_router_, p, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().out_stamped, 0u);
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kPass);
}

TEST_F(RouterPairTest, InvocationExpiryStopsProcessing) {
  invoke_dp_cdp(0, now_ - kSecond);
  auto p = Ipv4Packet::make(ip("40.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(outbound_one(peer_router_, p, now_), Verdict::kPass);
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kPass);
}

TEST_F(RouterPairTest, ToleranceIntervalErasesWithoutJudging) {
  // Verification started 1 s ago with the default 2 s tolerance: stale
  // marks (e.g. stamped under no key at all) are erased, not dropped.
  invoke_dp_cdp(now_ - kSecond, kHour);
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_erased_tolerance, 1u);
}

TEST_F(RouterPairTest, AlarmModeSamplesInsteadOfDropping) {
  invoke_dp_cdp(0, kHour);
  victim_router_.set_alarm_mode(true);
  std::vector<AlarmSample> samples;
  victim_router_.set_alarm_sink(
      [&](const AlarmSample& s) { samples.push_back(s); });

  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kPass);
  EXPECT_EQ(victim_router_.stats().in_spoof_sampled, 1u);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].source_as, kPeerAs);

  // Quitting alarm mode returns to dropping.
  victim_router_.set_alarm_mode(false);
  auto q = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(inbound_one(victim_router_, q, now_), Verdict::kDropSpoofed);
}

TEST_F(RouterPairTest, RekeyGraceWindowAcceptsOldKey) {
  invoke_dp_cdp(0, kHour);
  auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(outbound_one(peer_router_, p, now_), Verdict::kPass);

  // Victim installs the new verification key while the packet is in flight;
  // the old key is retained as grace key.
  victim_tables_.key_v.set_key(kPeerAs, derive_key128(99));
  EXPECT_EQ(inbound_one(victim_router_, p, now_ + kMillisecond),
            Verdict::kPass);

  // After finish_rekey the old key stops being accepted.
  auto q = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  EXPECT_EQ(outbound_one(peer_router_, q, now_), Verdict::kPass);
  victim_tables_.key_v.finish_rekey(kPeerAs);
  EXPECT_EQ(inbound_one(victim_router_, q, now_ + kMillisecond),
            Verdict::kDropSpoofed);
}

TEST_F(RouterPairTest, Ipv6EndToEndStampAndVerify) {
  peer_tables_.out_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                               DefenseFunction::kCdpStamp, 0, kHour);
  victim_tables_.in_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                                DefenseFunction::kCdpVerify, 0, kHour);
  auto p = Ipv6Packet::make(ip6("2001:db8:a::1"), ip6("2001:db8:b::9"), 17,
                            {1, 2, 3, 4});
  const auto original = p;
  EXPECT_EQ(outbound_one(peer_router_, p, now_), Verdict::kPass);
  EXPECT_TRUE(p.dest_opts.has_value());
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kPass);
  EXPECT_EQ(p, original);  // mark fully removed
}

TEST_F(RouterPairTest, Ipv6SpoofWithoutMarkDropped) {
  victim_tables_.in_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                                DefenseFunction::kCdpVerify, 0, kHour);
  auto p = Ipv6Packet::make(ip6("2001:db8:a::1"), ip6("2001:db8:b::9"), 17, {});
  EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kDropSpoofed);
}

TEST_F(RouterPairTest, Ipv6MtuOverflowEmitsPacketTooBig) {
  peer_tables_.out_dst.install(*Prefix6::parse("2001:db8:b::/48"),
                               DefenseFunction::kCdpStamp, 0, kHour);
  BorderRouter small_mtu_router(peer_tables_, kPeerAs, 3, /*mtu=*/128);
  std::vector<Ipv6Packet> icmp;
  small_mtu_router.set_icmp6_sink([&](Ipv6Packet m) { icmp.push_back(std::move(m)); });

  auto p = Ipv6Packet::make(ip6("2001:db8:a::1"), ip6("2001:db8:b::9"), 17,
                            std::vector<std::uint8_t>(85, 0));  // 40+85=125, +8 > 128
  EXPECT_EQ(outbound_one(small_mtu_router, p, now_), Verdict::kDropTooBig);
  ASSERT_EQ(icmp.size(), 1u);
  EXPECT_EQ(icmp[0].payload[0], kIcmpV6PacketTooBig);
  // Advertised MTU is 8 below the link MTU.
  const std::uint32_t mtu = (std::uint32_t{icmp[0].payload[4]} << 24) |
                            (std::uint32_t{icmp[0].payload[5]} << 16) |
                            (std::uint32_t{icmp[0].payload[6]} << 8) |
                            icmp[0].payload[7];
  EXPECT_EQ(mtu, 120u);
}

TEST_F(RouterPairTest, InboundTimeExceededScrubbed) {
  invoke_dp_cdp(0, kHour);
  // An attacker's probe: stamped packet whose TTL expired just outside the
  // peer AS; the returned Time Exceeded quotes the stamped header.
  auto probe = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(outbound_one(peer_router_, probe, now_), Verdict::kPass);
  const std::uint32_t stamped_mark = ipv4_read_mark(probe);

  auto te = build_time_exceeded_v4(probe, ip("40.0.0.254"));
  EXPECT_EQ(inbound_one(peer_router_, te, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().icmp_scrubbed, 1u);
  // The quoted mark is gone.
  const auto quoted = Ipv4Header::parse(
      std::span<const std::uint8_t>(te.payload.data() + 8, 20));
  ASSERT_TRUE(quoted.has_value());
  const std::uint32_t leaked =
      (std::uint32_t{quoted->identification} << 13) | quoted->fragment_offset;
  EXPECT_NE(leaked, stamped_mark);
  EXPECT_EQ(leaked, 0u);
}

TEST_F(RouterPairTest, ReplayOfCapturedMarkFailsForDifferentPacket) {
  invoke_dp_cdp(0, kHour);
  auto original = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"),
                                   IpProto::kUdp, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(outbound_one(peer_router_, original, now_), Verdict::kPass);
  const std::uint32_t captured = ipv4_read_mark(original);

  // Attacker reuses the captured mark on a packet with different payload:
  // the MAC is bound to msg, so verification fails (paper §VI-E2).
  auto forged = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                 {9, 9, 9, 9, 9, 9, 9, 9});
  forged.header.identification = static_cast<std::uint16_t>(captured >> 13);
  forged.header.fragment_offset = static_cast<std::uint16_t>(captured & 0x1fff);
  forged.header.refresh_checksum();
  EXPECT_EQ(inbound_one(victim_router_, forged, now_), Verdict::kDropSpoofed);

  // An exact replay (identical msg) does verify — detection of identical
  // duplicates is the destination host's job per the paper.
  EXPECT_EQ(inbound_one(victim_router_, original, now_), Verdict::kPass);
}

TEST_F(RouterPairTest, FragmentCollateralCounted) {
  invoke_dp_cdp(0, kHour);
  // A genuine fragmented packet (MF set) toward the protected prefix: the
  // stamp overwrites its reassembly fields; the router records the damage.
  auto frag1 = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                std::vector<std::uint8_t>(16, 1));
  frag1.header.flags = 0b001;  // more fragments
  frag1.header.identification = 0x4242;
  frag1.header.refresh_checksum();
  auto frag2 = frag1;
  frag2.header.flags = 0;
  frag2.header.fragment_offset = 2;  // continuation fragment
  frag2.header.refresh_checksum();
  auto whole = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                                {1, 2});

  EXPECT_EQ(outbound_one(peer_router_, frag1, now_), Verdict::kPass);
  EXPECT_EQ(outbound_one(peer_router_, frag2, now_), Verdict::kPass);
  EXPECT_EQ(outbound_one(peer_router_, whole, now_), Verdict::kPass);
  EXPECT_EQ(peer_router_.stats().fragments_stamped, 2u);
  EXPECT_EQ(peer_router_.stats().out_stamped, 3u);
  // The two fragments can no longer share an IPID: reassembly broken.
  EXPECT_NE(frag1.header.identification, 0x4242);
}

TEST_F(RouterPairTest, AlarmSamplingRateThinsReports) {
  invoke_dp_cdp(0, kHour);
  victim_router_.set_alarm_mode(true);
  victim_router_.set_sampling_rate(8);  // 1-in-8 sFlow style
  std::size_t samples = 0;
  victim_router_.set_alarm_sink([&](const AlarmSample&) { ++samples; });
  for (int k = 0; k < 800; ++k) {
    auto p = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp,
                              {std::uint8_t(k), std::uint8_t(k >> 8)});
    EXPECT_EQ(inbound_one(victim_router_, p, now_), Verdict::kPass);
  }
  EXPECT_EQ(victim_router_.stats().in_spoof_sampled, 800u);
  // Expect ~100 reports; allow generous Monte-Carlo slack.
  EXPECT_GT(samples, 50u);
  EXPECT_LT(samples, 180u);
}

TEST_F(RouterPairTest, StatsCountersaccount) {
  invoke_dp_cdp(0, kHour);
  auto good = Ipv4Packet::make(ip("10.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  auto bad = Ipv4Packet::make(ip("40.0.0.1"), ip("20.1.0.9"), IpProto::kUdp, {});
  outbound_one(peer_router_, good, now_);
  outbound_one(peer_router_, bad, now_);
  EXPECT_EQ(peer_router_.stats().out_processed, 2u);
  EXPECT_EQ(peer_router_.stats().out_stamped, 1u);
  EXPECT_EQ(peer_router_.stats().out_dropped, 1u);
}

TEST(RouterStatsTest, MergeSumsEveryField) {
  RouterStats a;
  a.out_processed = 1;
  a.out_dropped = 2;
  a.out_stamped = 3;
  a.out_too_big = 4;
  a.fragments_stamped = 5;
  a.in_processed = 6;
  a.in_verified = 7;
  a.in_spoof_dropped = 8;
  a.in_spoof_sampled = 9;
  a.in_erased_tolerance = 10;
  a.in_passed_unverified = 11;
  a.icmp_scrubbed = 12;

  RouterStats b;
  b.out_processed = 100;
  b.out_dropped = 200;
  b.out_stamped = 300;
  b.out_too_big = 400;
  b.fragments_stamped = 500;
  b.in_processed = 600;
  b.in_verified = 700;
  b.in_spoof_dropped = 800;
  b.in_spoof_sampled = 900;
  b.in_erased_tolerance = 1000;
  b.in_passed_unverified = 1100;
  b.icmp_scrubbed = 1200;

  RouterStats sum = a;
  sum += b;
  EXPECT_EQ(sum.out_processed, 101u);
  EXPECT_EQ(sum.out_dropped, 202u);
  EXPECT_EQ(sum.out_stamped, 303u);
  EXPECT_EQ(sum.out_too_big, 404u);
  EXPECT_EQ(sum.fragments_stamped, 505u);
  EXPECT_EQ(sum.in_processed, 606u);
  EXPECT_EQ(sum.in_verified, 707u);
  EXPECT_EQ(sum.in_spoof_dropped, 808u);
  EXPECT_EQ(sum.in_spoof_sampled, 909u);
  EXPECT_EQ(sum.in_erased_tolerance, 1010u);
  EXPECT_EQ(sum.in_passed_unverified, 1111u);
  EXPECT_EQ(sum.icmp_scrubbed, 1212u);

  // The free operator+ composes and merging a default adds nothing.
  EXPECT_EQ(a + b, sum);
  EXPECT_EQ(sum + RouterStats{}, sum);
}

}  // namespace
}  // namespace discs
