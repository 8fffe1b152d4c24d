// Control-plane integration tests: controllers discover each other, peer,
// negotiate keys, and drive the data plane end to end.
#include "control/controller.hpp"

#include <gtest/gtest.h>

namespace discs {
namespace {

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }
Ipv4Address ip(const char* t) { return *Ipv4Address::parse(t); }

/// Runs `packet` through the controller's engine (its only data plane) as a
/// one-packet batch and hands back the stamped or mark-erased packet.
Verdict send_one(Controller& c, Ipv4Packet& packet, SimTime now,
                 bool outbound) {
  PacketBatch batch;
  batch.add(std::move(packet));
  const Verdict verdict = outbound ? c.engine().process_outbound(batch, now)[0]
                                   : c.engine().process_inbound(batch, now)[0];
  packet = std::move(std::get<Ipv4Packet>(batch[0]));
  return verdict;
}
Verdict outbound(Controller& c, Ipv4Packet& packet, SimTime now) {
  return send_one(c, packet, now, /*outbound=*/true);
}
Verdict inbound(Controller& c, Ipv4Packet& packet, SimTime now) {
  return send_one(c, packet, now, /*outbound=*/false);
}

// Three DASes (AS 1: 10/8, AS 2: 20/8, AS 3: 30/8) plus a legacy AS 4
// (40/8) that never runs DISCS.
class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest()
      : rpki_({{pfx("10.0.0.0/8"), {1}},
               {pfx("20.0.0.0/8"), {2}},
               {pfx("30.0.0.0/8"), {3}},
               {pfx("40.0.0.0/8"), {4}}}),
        net_(loop_, 10 * kMillisecond) {}

  std::unique_ptr<Controller> make_controller(AsNumber as,
                                              ControllerConfig extra = {}) {
    ControllerConfig cfg = extra;
    cfg.as = as;
    cfg.seed = as * 1000 + 7;
    return std::make_unique<Controller>(cfg, loop_, net_, rpki_);
  }

  /// Floods every controller's Ad to every other controller (the BGP layer
  /// is exercised separately; core wires the real thing).
  void flood_ads(std::vector<Controller*> controllers) {
    for (Controller* a : controllers) {
      for (Controller* b : controllers) {
        if (a != b) b->discover(a->advertisement());
      }
    }
    // Bounded drain (not run()): periodic re-key timers reschedule forever.
    // 30 s comfortably covers peering jitter (<= 5 s) + handshakes.
    loop_.run_until(loop_.now() + 30 * kSecond);
  }

  InternetDataset rpki_;
  EventLoop loop_;
  ConConNetwork net_;
};

TEST_F(ControlPlaneTest, DiscoveryLeadsToPeeringAndKeys) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});

  EXPECT_TRUE(c1->is_peer(2));
  EXPECT_TRUE(c2->is_peer(1));
  // Both directions have keys: c1 stamps toward 2 with the key 2 verifies.
  ASSERT_TRUE(c1->tables().key_s.has_key(2));
  ASSERT_TRUE(c2->tables().key_v.has_key(1));
  EXPECT_EQ(c1->tables().key_s.find(2)->active, c2->tables().key_v.find(1)->active);
  EXPECT_EQ(c2->tables().key_s.find(1)->active, c1->tables().key_v.find(2)->active);
}

TEST_F(ControlPlaneTest, BlacklistedAsIsRejected) {
  ControllerConfig cfg;
  cfg.blacklist = {2};
  auto c1 = make_controller(1, cfg);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});

  EXPECT_FALSE(c1->is_peer(2));
  EXPECT_FALSE(c2->is_peer(1));
  EXPECT_EQ(c1->peer_state(2), PeerState::kRejected);
}

TEST_F(ControlPlaneTest, ThreePartyFullMesh) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  auto c3 = make_controller(3);
  flood_ads({c1.get(), c2.get(), c3.get()});
  EXPECT_EQ(c1->peer_count(), 2u);
  EXPECT_EQ(c2->peer_count(), 2u);
  EXPECT_EQ(c3->peer_count(), 2u);
}

TEST_F(ControlPlaneTest, InvocationInstallsBothSides) {
  auto c1 = make_controller(1);  // victim
  auto c2 = make_controller(2);  // peer
  flood_ads({c1.get(), c2.get()});

  EXPECT_EQ(c1->invoke_ddos_defense(pfx("10.1.0.0/16"), /*spoofed_source=*/false),
            1u);
  // Bounded drain: the con-rou channel schedules the invocation's expiry
  // sweep at window end, so run() would fast-forward past the window.
  loop_.run_until(loop_.now() + kSecond);

  const SimTime now = loop_.now() + kMinute;
  // Peer side: DP + CDP-stamp on Out-Dst.
  const auto peer_match = c2->tables().out_dst.lookup(ip("10.1.2.3"), now);
  EXPECT_TRUE(has_function(peer_match.functions, DefenseFunction::kDp));
  EXPECT_TRUE(has_function(peer_match.functions, DefenseFunction::kCdpStamp));
  // Victim side: CDP-verify on In-Dst.
  const auto victim_match = c1->tables().in_dst.lookup(ip("10.1.2.3"), now);
  EXPECT_TRUE(has_function(victim_match.functions, DefenseFunction::kCdpVerify));
}

TEST_F(ControlPlaneTest, EndToEndPacketFiltering) {
  auto c1 = make_controller(1);  // victim
  auto c2 = make_controller(2);  // collaborating peer
  flood_ads({c1.get(), c2.get()});
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false);
  loop_.run_until(loop_.now() + kSecond);  // bounded: expiry sweep is queued
  const SimTime now = loop_.now() + kMinute;

  // Genuine packet from AS 2 to the victim: stamped at 2, verified at 1.
  auto good = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp,
                               {1, 2, 3});
  EXPECT_EQ(outbound(*c2, good, now), Verdict::kPass);
  EXPECT_EQ(inbound(*c1, good, now), Verdict::kPass);
  EXPECT_EQ(c1->engine().stats().in_verified, 1u);

  // Agent inside AS 2 spoofing AS 4: dropped at 2's egress (DP).
  auto spoof = Ipv4Packet::make(ip("40.0.0.1"), ip("10.1.0.1"), IpProto::kUdp, {});
  EXPECT_EQ(outbound(*c2, spoof, now), Verdict::kDropFiltered);

  // Attack from legacy AS 4 spoofing AS 2's space: reaches the victim
  // unstamped and is dropped by CDP-verify.
  auto forged = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp, {});
  EXPECT_EQ(inbound(*c1, forged, now), Verdict::kDropSpoofed);
}

TEST_F(ControlPlaneTest, SpoofedSourceDefenseUsesSpCsp) {
  auto c1 = make_controller(1);  // victim of s-DDoS
  auto c2 = make_controller(2);  // peer (potential reflector host)
  flood_ads({c1.get(), c2.get()});
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), /*spoofed_source=*/true);
  loop_.run_until(loop_.now() + kSecond);  // bounded: expiry sweep is queued
  const SimTime now = loop_.now() + kMinute;

  // Victim stamps its genuine outbound toward the peer (CSP-stamp).
  auto genuine = Ipv4Packet::make(ip("10.1.0.1"), ip("20.0.0.5"), IpProto::kUdp,
                                  {1, 2});
  EXPECT_EQ(outbound(*c1, genuine, now), Verdict::kPass);
  EXPECT_EQ(c1->engine().stats().out_stamped, 1u);
  EXPECT_EQ(inbound(*c2, genuine, now), Verdict::kPass);
  EXPECT_EQ(c2->engine().stats().in_verified, 1u);

  // Reflection-attack request forged by an agent inside AS 2, claiming the
  // victim's source: dropped at 2's egress (SP).
  auto forged = Ipv4Packet::make(ip("10.1.0.1"), ip("20.0.0.5"), IpProto::kUdp, {});
  EXPECT_EQ(outbound(*c2, forged, now), Verdict::kDropFiltered);

  // Forged request arriving at the peer from the legacy world without a
  // mark: dropped by CSP-verify at 2's ingress.
  auto inbound_forged =
      Ipv4Packet::make(ip("10.1.0.1"), ip("20.0.0.5"), IpProto::kUdp, {9});
  EXPECT_EQ(inbound(*c2, inbound_forged, now),
            Verdict::kDropSpoofed);
}

TEST_F(ControlPlaneTest, OwnershipCheckRejectsForeignPrefixes) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});

  // AS 1 tries to get AS 3's prefix filtered — must be refused.
  c1->invoke({{pfx("30.1.0.0/16"), kInvokeAll, kHour}});
  loop_.run();
  EXPECT_EQ(c2->stats().invocations_rejected, 1u);
  const auto match =
      c2->tables().out_dst.lookup(ip("30.1.0.1"), loop_.now() + kMinute);
  EXPECT_EQ(match.functions, 0);
}

TEST_F(ControlPlaneTest, InvocationExpiresAfterDuration) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false, kHour);
  loop_.run_until(loop_.now() + kSecond);  // bounded: expiry sweep is queued

  const SimTime active = loop_.now() + kMinute;
  const SimTime expired = loop_.now() + 2 * kHour;
  EXPECT_NE(c2->tables().out_dst.lookup(ip("10.1.0.1"), active).functions, 0);
  EXPECT_EQ(c2->tables().out_dst.lookup(ip("10.1.0.1"), expired).functions, 0);

  // Expiry is physical, not just a lazy time check: the channel scheduled a
  // remove-transaction at window end + grace, so draining the loop leaves
  // zero windows installed on either side.
  loop_.run();
  EXPECT_EQ(c2->tables().out_dst.window_count(), 0u);
  EXPECT_EQ(c1->tables().in_dst.window_count(), 0u);
}

TEST_F(ControlPlaneTest, ReinvocationExtendsDuration) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false, kHour);
  loop_.run_until(loop_.now() + kSecond);
  // Attack persists: re-invoke with a longer duration (§IV-E1).
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false, 3 * kHour);
  loop_.run_until(loop_.now() + kSecond);
  const SimTime later = loop_.now() + 2 * kHour;
  EXPECT_NE(c2->tables().out_dst.lookup(ip("10.1.0.1"), later).functions, 0);

  // The first invocation's sweep fires around hour 1, mid-way through the
  // extended window — it must be a no-op (the merged window's end moved).
  loop_.run_until(loop_.now() + kHour + kMinute);
  EXPECT_NE(
      c2->tables().out_dst.lookup(ip("10.1.0.1"), loop_.now()).functions, 0);
}

TEST_F(ControlPlaneTest, RekeyKeepsTrafficFlowing) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false);
  loop_.run_until(loop_.now() + kSecond);  // bounded: expiry sweep is queued
  const SimTime t1 = loop_.now() + kMinute;

  // Packet stamped under the original key...
  auto in_flight = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"),
                                    IpProto::kUdp, {1});
  EXPECT_EQ(outbound(*c2, in_flight, t1), Verdict::kPass);

  // ...then AS 2 re-keys (two-phase). Advance only far enough for the
  // KeyInstall/Ack exchange — the grace window (2 s) must still be open.
  c2->rekey_all_peers();
  loop_.run_until(loop_.now() + 500 * kMillisecond);
  EXPECT_GE(c2->stats().rekeys_completed, 1u);

  // The in-flight packet still verifies via the grace key window. (Judged
  // at t1, outside the invocation's head tolerance interval, so this truly
  // exercises the grace key.)
  EXPECT_EQ(inbound(*c1, in_flight, t1), Verdict::kPass);
  EXPECT_GE(c1->engine().stats().in_verified, 1u);

  // Once the grace window closes the old key is purged from the table.
  loop_.run_until(loop_.now() + 5 * kSecond);
  EXPECT_FALSE(c1->tables().key_v.find(2)->previous.has_value());

  // New packets use the new key and verify too.
  auto fresh = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp,
                                {2});
  EXPECT_EQ(outbound(*c2, fresh, loop_.now()), Verdict::kPass);
  EXPECT_EQ(inbound(*c1, fresh, loop_.now()), Verdict::kPass);
}

TEST_F(ControlPlaneTest, PeriodicRekeyTimerFires) {
  ControllerConfig cfg;
  cfg.rekey_interval = kMinute;
  auto c1 = make_controller(1, cfg);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  const auto serial_before = c1->stats().keys_generated;
  // run_until (not run()): the re-key timer reschedules itself forever.
  loop_.run_until(loop_.now() + 3 * kMinute + 5 * kSecond);
  EXPECT_GE(c1->stats().keys_generated, serial_before + 3);
  EXPECT_GE(c1->stats().rekeys_completed, 3u);
}

TEST_F(ControlPlaneTest, AlarmModeDetectorTriggersDropMode) {
  ControllerConfig cfg;
  cfg.detect_threshold = 10;
  auto c1 = make_controller(1, cfg);  // victim, lacking a detector module
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});

  // Victim invokes in alarm mode: spoofing is identified + sampled, not
  // dropped yet.
  c1->invoke({{pfx("10.1.0.0/16"),
               invoke_mask(InvokableFunction::kDp) |
                   invoke_mask(InvokableFunction::kCdp),
               kHour}},
             /*alarm_mode=*/true);
  loop_.run_until(loop_.now() + kSecond);  // bounded: expiry sweep is queued
  EXPECT_TRUE(c1->engine().alarm_mode());

  // A stream of forged packets (claiming peer AS 2) hits the victim, well
  // past the head tolerance interval so verification actually judges them.
  const SimTime t0 = loop_.now() + kMinute;
  for (int i = 0; i < 9; ++i) {
    auto forged = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"),
                                   IpProto::kUdp, {std::uint8_t(i)});
    EXPECT_EQ(inbound(*c1, forged, t0 + i), Verdict::kPass);
  }
  EXPECT_TRUE(c1->engine().alarm_mode());  // below threshold

  auto forged = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp,
                                 {99});
  EXPECT_EQ(inbound(*c1, forged, t0 + 10), Verdict::kPass);
  // Threshold crossed: the controller leaves alarm mode (and asks peers to).
  EXPECT_FALSE(c1->engine().alarm_mode());
  EXPECT_EQ(c1->stats().detector_triggers, 1u);

  auto next = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp,
                               {100});
  EXPECT_EQ(inbound(*c1, next, t0 + 11), Verdict::kDropSpoofed);
}

TEST_F(ControlPlaneTest, LegacyAsGetsNoProtection) {
  // The paper's incentive property: an AS without DISCS cannot invoke
  // anything — there is simply no controller and no peer executing for it.
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  const SimTime now = loop_.now() + kMinute;
  // Traffic spoofing legacy AS 4's space toward AS 4 flows through AS 2
  // untouched: no function tables ever mention 40/8.
  auto spoof = Ipv4Packet::make(ip("40.0.0.1"), ip("40.0.0.2"), IpProto::kUdp, {});
  EXPECT_EQ(outbound(*c2, spoof, now), Verdict::kPass);
}

TEST_F(ControlPlaneTest, ConRouLatencyDelaysTableInstallation) {
  ControllerConfig cfg;
  cfg.con_rou_latency = 200 * kMillisecond;
  auto c1 = make_controller(1, cfg);
  auto c2 = make_controller(2, cfg);
  flood_ads({c1.get(), c2.get()});

  const SimTime invoked_at = loop_.now();
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false);
  // The victim-side entry is not on the routers yet.
  EXPECT_EQ(c1->tables().in_dst.lookup(ip("10.1.0.1"), invoked_at).functions, 0);

  loop_.run_until(invoked_at + kSecond);
  const SimTime now = loop_.now() + kMinute;
  EXPECT_TRUE(has_function(c1->tables().in_dst.lookup(ip("10.1.0.1"), now).functions,
                           DefenseFunction::kCdpVerify));
  EXPECT_TRUE(has_function(c2->tables().out_dst.lookup(ip("10.1.0.1"), now).functions,
                           DefenseFunction::kDp));

  // The peers' windows start at *their* install time, not the victim's
  // decision time: asynchronization exists, and the 2 s tolerance interval
  // comfortably covers the 200 ms skew — a genuine packet stamped by the
  // peer immediately after install verifies at the victim.
  auto p = Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp, {1});
  EXPECT_EQ(outbound(*c2, p, now), Verdict::kPass);
  EXPECT_EQ(inbound(*c1, p, now), Verdict::kPass);
}

TEST_F(ControlPlaneTest, ControllerRequiresValidAs) {
  ControllerConfig cfg;
  cfg.as = kNoAs;
  EXPECT_THROW(Controller(cfg, loop_, net_, rpki_), std::invalid_argument);
}

TEST_F(ControlPlaneTest, SimultaneousPeeringRequestsConverge) {
  // Both sides discover each other at the same instant with zero jitter:
  // crossing PeeringRequests must still converge to a single peered state
  // with exactly one key per direction.
  ControllerConfig cfg;
  cfg.max_peering_delay = 0;
  auto c1 = make_controller(1, cfg);
  auto c2 = make_controller(2, cfg);
  c1->discover(c2->advertisement());
  c2->discover(c1->advertisement());
  loop_.run();

  EXPECT_TRUE(c1->is_peer(2));
  EXPECT_TRUE(c2->is_peer(1));
  EXPECT_EQ(c1->stats().keys_generated, 1u);
  EXPECT_EQ(c2->stats().keys_generated, 1u);
  EXPECT_EQ(c1->tables().key_s.find(2)->active, c2->tables().key_v.find(1)->active);
}

TEST_F(ControlPlaneTest, RediscoveryAfterPeeringIsIgnored) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  const auto keys_before = c1->stats().keys_generated;
  // The Ad re-floods (e.g. a BGP path change); nothing should restart.
  c1->discover(c2->advertisement());
  loop_.run();
  EXPECT_EQ(c1->stats().keys_generated, keys_before);
  EXPECT_TRUE(c1->is_peer(2));
}

TEST_F(ControlPlaneTest, DuplicatePeeringRequestDoesNotRenegotiateKeys) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  ASSERT_TRUE(c1->is_peer(2));
  const auto keys_before = c1->stats().keys_generated;
  const auto stamp_before = c1->tables().key_s.find(2)->active;

  // A duplicated / replayed PeeringRequest reaches the peered side twice
  // (e.g. the sender's retransmit raced its own ack). The handler must
  // re-accept idempotently — no fresh key negotiation, no serial churn.
  net_.send(2, 1, PeeringRequest{});
  net_.send(2, 1, PeeringRequest{});
  loop_.run();

  EXPECT_EQ(c1->stats().keys_generated, keys_before);
  EXPECT_EQ(c1->tables().key_s.find(2)->active, stamp_before);
  EXPECT_TRUE(c1->is_peer(2));
  EXPECT_TRUE(c2->is_peer(1));
  EXPECT_EQ(c1->tables().key_s.find(2)->active,
            c2->tables().key_v.find(1)->active);
  EXPECT_EQ(c1->link().pending_count(), 0u);
}

TEST_F(ControlPlaneTest, RekeySurvivesLostAcksAndKeepsGraceKeyUntilCommit) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false);
  loop_.run_until(loop_.now() + kSecond);

  // Partition opens just after the KeyInstall leaves c2, swallowing the
  // KeyInstallAck and every retransmission for three seconds.
  const SimTime t0 = loop_.now();
  FaultPlan plan;
  plan.partitions = {{1, 2, t0 + 5 * kMillisecond, t0 + 3 * kSecond}};
  net_.set_fault_plan(plan);
  c2->rekey_all_peers();

  // Well past the old fixed 2 s grace window, still inside the partition:
  // c2 never saw an ack so it has not committed and still stamps with the
  // old key — c1 must still hold the grace key to verify that traffic.
  // (A timer-based grace drop fails exactly here.)
  loop_.run_until(t0 + 2500 * kMillisecond);
  EXPECT_EQ(c2->stats().rekeys_completed, 0u);
  ASSERT_TRUE(c1->tables().key_v.find(2)->previous.has_value());
  auto old_stamped =
      Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp, {1});
  EXPECT_EQ(outbound(*c2, old_stamped, loop_.now()),
            Verdict::kPass);
  EXPECT_EQ(inbound(*c1, old_stamped, loop_.now()),
            Verdict::kPass);

  // The partition heals, a retransmission completes the handshake, and the
  // RekeyComplete-gated grace drop finally fires.
  loop_.run_until(t0 + 12 * kSecond);
  EXPECT_EQ(c2->stats().rekeys_completed, 1u);
  EXPECT_FALSE(c1->tables().key_v.find(2)->previous.has_value());
  EXPECT_GT(net_.fault_stats().partition_drops, 0u);
  EXPECT_GT(c1->link().stats().retransmits + c2->link().stats().retransmits,
            0u);
  EXPECT_EQ(c2->tables().key_s.find(1)->active,
            c1->tables().key_v.find(2)->active);

  auto fresh =
      Ipv4Packet::make(ip("20.0.0.5"), ip("10.1.0.1"), IpProto::kUdp, {2});
  EXPECT_EQ(outbound(*c2, fresh, loop_.now()), Verdict::kPass);
  EXPECT_EQ(inbound(*c1, fresh, loop_.now()), Verdict::kPass);
}

TEST_F(ControlPlaneTest, UnreachablePeerRollsBackToDiscovered) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  // AS 2 is partitioned away for the whole retry budget: the peering
  // request must exhaust its retransmissions, count a delivery failure,
  // and roll AS 2 back to kDiscovered instead of wedging in kRequested.
  FaultPlan plan;
  plan.partitions = {{1, 2, 0, kHour}};
  net_.set_fault_plan(plan);
  c1->discover(c2->advertisement());
  loop_.run_until(2 * kMinute);

  EXPECT_EQ(c1->link().stats().delivery_failures, 1u);
  EXPECT_EQ(c1->peer_state(2), PeerState::kDiscovered);
  EXPECT_EQ(c1->link().pending_count(), 0u);
}

TEST_F(ControlPlaneTest, DetachedControllerStopsReceiving) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  flood_ads({c1.get(), c2.get()});
  c2->shutdown();  // detaches from the channel
  const auto received_before = c2->stats().invocations_received;
  c1->invoke_ddos_defense(pfx("10.1.0.0/16"), false);
  loop_.run();
  EXPECT_EQ(c2->stats().invocations_received, received_before);
}

}  // namespace
}  // namespace discs
