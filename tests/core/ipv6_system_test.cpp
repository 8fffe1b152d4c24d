// IPv6 end-to-end system tests: the §V-F data plane driven by real control
// plane invocations over the dual-stack dataset.
#include <gtest/gtest.h>

#include "core/discs_system.hpp"

namespace discs {
namespace {

DiscsSystem::Config small_config() {
  DiscsSystem::Config cfg;
  cfg.internet.num_ases = 32;
  cfg.internet.num_prefixes = 320;
  cfg.internet.seed = 77;
  cfg.seed = 6;
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

TEST(Ipv6SystemTest, InvocationCoversBothFamilies) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  auto& helper = system.deploy(cast.helper);
  system.settle();

  EXPECT_FALSE(victim.local_prefixes6().empty());
  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);

  const SimTime now = system.now() + kMinute;
  const auto v6_prefix = victim.local_prefixes6().front();
  const auto probe = system.sampler().sample_address6(cast.victim);
  ASSERT_TRUE(v6_prefix.contains(probe));
  const auto match = helper.tables().out_dst.lookup(probe, now);
  EXPECT_TRUE(has_function(match.functions, DefenseFunction::kDp));
  EXPECT_TRUE(has_function(match.functions, DefenseFunction::kCdpStamp));
}

TEST(Ipv6SystemTest, DirectV6AttackFiltered) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();
  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);

  // Agents inside the helper spoofing a legacy AS's v6 space: DP at the
  // helper's egress.
  std::size_t egress_drops = 0, victim_drops = 0, delivered = 0;
  for (int k = 0; k < 100; ++k) {
    SpoofFlow flow{cast.helper, cast.legacy, cast.victim, AttackType::kDirect};
    auto packet = system.sampler().attack_packet6(flow);
    const auto result = system.send_packet(cast.helper, packet);
    egress_drops += result.outcome == DeliveryOutcome::kDroppedAtSource;
  }
  EXPECT_EQ(egress_drops, 100u);

  // Attack from the legacy AS spoofing the helper's v6 space: no valid
  // destination option -> CDP-verify drops at the victim.
  for (int k = 0; k < 100; ++k) {
    SpoofFlow flow{cast.legacy, cast.helper, cast.victim, AttackType::kDirect};
    auto packet = system.sampler().attack_packet6(flow);
    const auto result = system.send_packet(cast.legacy, packet);
    victim_drops += result.outcome == DeliveryOutcome::kDroppedAtDestination;
    delivered += result.outcome == DeliveryOutcome::kDelivered;
  }
  EXPECT_EQ(victim_drops, 100u);
  EXPECT_EQ(delivered, 0u);
}

TEST(Ipv6SystemTest, GenuineV6TrafficStampedAndVerified) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  auto& helper = system.deploy(cast.helper);
  system.settle();
  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);

  for (int k = 0; k < 50; ++k) {
    auto packet = system.sampler().legit_packet6(cast.helper, cast.victim);
    const auto original = packet;
    EXPECT_EQ(system.send_packet(cast.helper, packet).outcome,
              DeliveryOutcome::kDelivered);
    // Mark added at the helper's egress and removed at the victim's
    // ingress: the delivered packet equals the original.
    EXPECT_EQ(packet, original);
  }
  EXPECT_GE(helper.engine().stats().out_stamped, 50u);
  EXPECT_GE(victim.engine().stats().in_verified, 50u);

  // Legacy-origin genuine v6 traffic passes unverified (no peer source).
  auto from_legacy = system.sampler().legit_packet6(cast.legacy, cast.victim);
  EXPECT_EQ(system.send_packet(cast.legacy, from_legacy).outcome,
            DeliveryOutcome::kDelivered);
}

TEST(Ipv6SystemTest, ReflectionV6Defense) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto& victim = system.deploy(cast.victim);
  system.deploy(cast.helper);
  system.settle();
  victim.invoke_ddos_defense_all(/*spoofed_source=*/true);
  system.settle(10 * kSecond);

  // Forged v6 requests claiming the victim, sent from the legacy AS toward
  // the helper (reflector): CSP-verify drops them at the helper's ingress.
  std::size_t dropped = 0;
  for (int k = 0; k < 100; ++k) {
    SpoofFlow flow{cast.legacy, cast.helper, cast.victim,
                   AttackType::kReflection};
    auto packet = system.sampler().attack_packet6(flow);
    dropped += system.send_packet(cast.legacy, packet).outcome ==
               DeliveryOutcome::kDroppedAtDestination;
  }
  EXPECT_EQ(dropped, 100u);

  // The victim's genuine v6 traffic to the helper is stamped and survives.
  auto genuine = system.sampler().legit_packet6(cast.victim, cast.helper);
  EXPECT_EQ(system.send_packet(cast.victim, genuine).outcome,
            DeliveryOutcome::kDelivered);
}

TEST(Ipv6SystemTest, UnroutableV6Destination) {
  DiscsSystem system(small_config());
  const Cast cast = pick_cast(system);
  auto packet = Ipv6Packet::make(*Ipv6Address::parse("fd00::1"),
                                 *Ipv6Address::parse("fd00::2"), 17, {});
  EXPECT_EQ(system.send_packet(cast.victim, packet).outcome,
            DeliveryOutcome::kUnroutable);
}

}  // namespace
}  // namespace discs
