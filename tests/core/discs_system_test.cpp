// Full-system integration tests: BGP discovery -> peering -> keys ->
// on-demand invocation -> packet-level filtering, through the public facade.
#include "core/discs_system.hpp"

#include <gtest/gtest.h>

#include <string>

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

/// Two distinct DAS candidates plus a legacy AS, all guaranteed routable.
struct Cast {
  AsNumber victim;
  AsNumber helper;
  AsNumber legacy;
};

Cast pick_cast(const DiscsSystem& system) {
  const auto order = system.dataset().ases_by_space_desc();
  return Cast{order[0], order[1], order[2]};
}

TEST(DiscsSystemTest, DeployDiscoverPeer) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  auto& helper = system.deploy(cast.helper);
  system.settle();

  EXPECT_TRUE(victim.is_peer(cast.helper));
  EXPECT_TRUE(helper.is_peer(cast.victim));
  EXPECT_TRUE(victim.tables().key_s.has_key(cast.helper));
  EXPECT_TRUE(helper.tables().key_v.has_key(cast.victim));
}

TEST(DiscsSystemTest, LateDeployerDiscoversEarlierOnes) {
  DiscsSystem system(small_config());
  const auto order = system.dataset().ases_by_space_desc();
  system.deploy(order[0]);
  system.deploy(order[1]);
  system.settle();
  // A third AS joins much later; the earlier Ads still sit in its Loc-RIB.
  auto& late = system.deploy(order[5]);
  system.settle();
  EXPECT_EQ(late.peer_count(), 2u);
}

TEST(DiscsSystemTest, DeployIsIdempotentAndValidates) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& first = system.deploy(cast.victim);
  auto& second = system.deploy(cast.victim);
  EXPECT_EQ(&first, &second);
  EXPECT_THROW(system.deploy(999999), std::invalid_argument);
}

TEST(DiscsSystemTest, DirectSpoofingAttackIsFiltered) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();

  victim.invoke_ddos_defense_all(/*spoofed_source=*/false);
  system.settle(10 * kSecond);  // past the tolerance interval

  // Agents inside the helper DAS: every spoofed packet dies at its egress.
  const auto from_helper =
      system.run_attack(AttackType::kDirect, cast.helper, cast.victim, 100);
  EXPECT_EQ(from_helper.delivered, 0u);
  EXPECT_EQ(from_helper.dropped_at_source, 100u);

  // Agents inside a legacy AS: packets spoofing the helper's space die at
  // the victim's ingress (no valid mark); others sail through.
  const auto from_legacy =
      system.run_attack(AttackType::kDirect, cast.legacy, cast.victim, 200);
  EXPECT_GT(from_legacy.dropped_at_destination, 0u);
  EXPECT_GT(from_legacy.delivered, 0u);  // partial deployment, as expected
  EXPECT_EQ(from_legacy.dropped_at_source, 0u);
}

TEST(DiscsSystemTest, GenuineTrafficUnaffectedDuringDefense) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();
  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);

  // Genuine packets from the helper (stamped+verified) and from the legacy
  // AS (passed unverified) must all arrive: DISCS is IFP-free.
  for (int k = 0; k < 50; ++k) {
    auto from_helper = system.sampler().legit_packet(cast.helper, cast.victim);
    EXPECT_EQ(system.send_packet(cast.helper, from_helper).outcome,
              DeliveryOutcome::kDelivered);
    auto from_legacy = system.sampler().legit_packet(cast.legacy, cast.victim);
    EXPECT_EQ(system.send_packet(cast.legacy, from_legacy).outcome,
              DeliveryOutcome::kDelivered);
  }
}

TEST(DiscsSystemTest, ReflectionAttackIsFiltered) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();
  victim.invoke_ddos_defense_all(/*spoofed_source=*/true);
  system.settle(10 * kSecond);

  // Reflection requests forged inside the helper AS die at its egress (SP).
  const auto report =
      system.run_attack(AttackType::kReflection, cast.helper, cast.victim, 100);
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.dropped_at_source, 100u);

  // The victim's own genuine traffic to the helper still flows (CSP stamp
  // and verify).
  auto genuine = system.sampler().legit_packet(cast.victim, cast.helper);
  EXPECT_EQ(system.send_packet(cast.victim, genuine).outcome,
            DeliveryOutcome::kDelivered);
  EXPECT_GE(system.controller(cast.helper)->engine().stats().in_verified, 1u);
}

double metric_value(const telemetry::MetricsSnapshot& snap,
                    const std::string& name, const telemetry::Labels& labels) {
  for (const auto& m : snap.metrics) {
    if (m.name == name && m.labels == labels) return m.value;
  }
  return -1;
}

// run_attack traffic is DAS traffic like any other: a controller's bound
// metrics count the packets its data plane drops.
TEST(DiscsSystemTest, BoundMetricsCountRunAttackTraffic) {
  telemetry::MetricsRegistry registry;  // outlives the bound controller
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  auto& helper = system.deploy(cast.helper);
  system.settle();
  helper.bind_metrics(registry);
  victim.invoke_ddos_defense_all(/*spoofed_source=*/false);  // DP + CDP
  system.settle(10 * kSecond);

  const auto report =
      system.run_attack(AttackType::kDirect, cast.helper, cast.victim, 200);
  ASSERT_EQ(report.dropped_at_source, 200u);

  const auto snap = registry.snapshot();
  const std::string as = std::to_string(cast.helper);
  EXPECT_DOUBLE_EQ(
      metric_value(snap, "discs_router_out_dropped_total", {{"as", as}}),
      200.0);
  EXPECT_DOUBLE_EQ(metric_value(snap, "discs_engine_verdicts_total",
                                {{"as", as}, {"verdict", "drop_filtered"}}),
                   200.0);
}

TEST(DiscsSystemTest, NoProtectionWithoutInvocation) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();
  // Peered but nothing invoked: on-demand means zero processing.
  const auto report =
      system.run_attack(AttackType::kDirect, cast.helper, cast.victim, 50);
  EXPECT_EQ(report.delivered, 50u);
}

TEST(DiscsSystemTest, ProtectionExpiresWithDuration) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();
  victim.invoke_ddos_defense_all(false, /*duration=*/kMinute);
  system.settle(10 * kSecond);
  const auto during =
      system.run_attack(AttackType::kDirect, cast.helper, cast.victim, 20);
  EXPECT_EQ(during.delivered, 0u);

  system.settle(2 * kMinute);  // past expiry
  const auto after =
      system.run_attack(AttackType::kDirect, cast.helper, cast.victim, 20);
  EXPECT_EQ(after.delivered, 20u);
}

TEST(DiscsSystemTest, UnroutableDestinationsReported) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto packet = Ipv4Packet::make(*Ipv4Address::parse("203.0.113.1"),
                                 *Ipv4Address::parse("198.51.100.1"),
                                 IpProto::kUdp, {});
  EXPECT_EQ(system.send_packet(cast.victim, packet).outcome,
            DeliveryOutcome::kUnroutable);
}

TEST(DiscsSystemTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    DiscsSystem system(small_config());
    const Cast cast = pick_cast(system);
    auto& victim = system.deploy(cast.victim);
    system.deploy(cast.helper);
    system.settle();
    victim.invoke_ddos_defense_all(false);
    system.settle(10 * kSecond);
    return system.run_attack(AttackType::kDirect, cast.legacy, cast.victim, 100);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped_at_destination, b.dropped_at_destination);
}

TEST(DiscsSystemTest, ManyDasFullMesh) {
  DiscsSystem system(small_config());
  const auto order = system.dataset().ases_by_space_desc();
  for (std::size_t i = 0; i < 6; ++i) system.deploy(order[i]);
  system.settle();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(system.controller(order[i])->peer_count(), 5u) << order[i];
  }
  EXPECT_EQ(system.deployed_ases().size(), 6u);
}

}  // namespace
}  // namespace discs
