// Teardown tests: severing one peering and leaving the collaboration
// entirely (paper §IV-C peering policy is dynamic; incremental deployment
// also means incremental *un*-deployment must not strand state).
#include <gtest/gtest.h>

#include "core/discs_system.hpp"

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

TEST(TeardownTest, TearDownOnePeeringDropsKeysBothSides) {
  DiscsSystem system(small_config());
  const auto order = system.dataset().ases_by_space_desc();
  auto& a = system.deploy(order[0]);
  auto& b = system.deploy(order[1]);
  auto& c = system.deploy(order[2]);
  system.settle();
  ASSERT_EQ(a.peer_count(), 2u);

  a.tear_down_peering(order[1]);
  system.settle(5 * kSecond);

  EXPECT_FALSE(a.is_peer(order[1]));
  EXPECT_FALSE(b.is_peer(order[0]));
  EXPECT_FALSE(a.tables().key_s.has_key(order[1]));
  EXPECT_FALSE(b.tables().key_v.has_key(order[0]));
  // The third relationship is untouched.
  EXPECT_TRUE(a.is_peer(order[2]));
  EXPECT_TRUE(c.is_peer(order[0]));
}

TEST(TeardownTest, UndeployRevertsToLegacyAs) {
  DiscsSystem system(small_config());
  const auto order = system.dataset().ases_by_space_desc();
  auto& victim = system.deploy(order[0]);
  system.deploy(order[1]);
  system.settle();
  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);

  // Protection active.
  auto during = system.run_attack(AttackType::kDirect, order[1], order[0], 50);
  EXPECT_EQ(during.delivered, 0u);

  // The helper un-deploys: its egress filters disappear with it.
  system.undeploy(order[1]);
  EXPECT_FALSE(system.is_das(order[1]));
  EXPECT_FALSE(victim.is_peer(order[1]));
  EXPECT_FALSE(victim.tables().key_v.has_key(order[1]));

  auto after = system.run_attack(AttackType::kDirect, order[1], order[0], 50);
  EXPECT_EQ(after.dropped_at_source, 0u);
  // Victim-side CDP can no longer judge traffic claiming the ex-peer
  // either (no key), so these spoofs get through — exactly the incentive
  // structure the paper describes.
  EXPECT_GT(after.delivered, 0u);
}

TEST(TeardownTest, UndeployIsIdempotentAndRedeployable) {
  DiscsSystem system(small_config());
  const auto order = system.dataset().ases_by_space_desc();
  system.deploy(order[0]);
  system.deploy(order[1]);
  system.settle();

  system.undeploy(order[1]);
  system.undeploy(order[1]);  // no-op
  EXPECT_FALSE(system.is_das(order[1]));

  // Re-deploy: discovery runs again, peering re-forms.
  auto& back = system.deploy(order[1]);
  system.settle();
  EXPECT_TRUE(back.is_peer(order[0]));
  EXPECT_TRUE(system.controller(order[0])->is_peer(order[1]));
}

/// An address of `as`'s own space (one no MOAS co-owner maps elsewhere).
Ipv4Address address_of(const DiscsSystem& system, AsNumber as) {
  for (const Prefix4& p : system.dataset().prefixes_of(as)) {
    const Ipv4Address a(p.address().bits() + 1);
    if (system.dataset().origin_of(a) == as) return a;
  }
  ADD_FAILURE() << "AS " << as << " has no address of its own";
  return {};
}

TEST(TeardownTest, DestinationStageFollowsDeployAndUndeploy) {
  // send_batch keeps each destination AS's controller in a per-AS slot for
  // the system's lifetime; deploy and undeploy must keep it current.
  DiscsSystem system(small_config());
  const auto order = system.dataset().ases_by_space_desc();
  const AsNumber victim = order[0], helper = order[1], legacy = order[2];
  const auto arm = [&] {
    system.deploy(victim);
    system.deploy(helper);  // no-op when already deployed
    system.settle();
    system.controller(victim)->invoke_ddos_defense_all(false);
    system.settle(10 * kSecond);
  };
  // Spoofed: claims the helper's space, sent from a legacy AS to the victim.
  const Ipv4Address src = address_of(system, helper);
  const Ipv4Address dst = address_of(system, victim);
  const auto send = [&] {
    Ipv4Packet packet = Ipv4Packet::make(src, dst, IpProto::kUdp, {1});
    return system.send_packet(legacy, packet);
  };

  arm();
  EXPECT_EQ(send().outcome, DeliveryOutcome::kDroppedAtDestination);

  system.undeploy(victim);
  const DeliveryResult legacy_victim = send();
  EXPECT_EQ(legacy_victim.outcome, DeliveryOutcome::kDelivered);
  EXPECT_EQ(legacy_victim.destination_verdict, Verdict::kPass);

  arm();
  EXPECT_EQ(send().outcome, DeliveryOutcome::kDroppedAtDestination);
}

TEST(TeardownTest, RemainingDasesKeepWorkingAfterUndeploy) {
  DiscsSystem system(small_config());
  const auto order = system.dataset().ases_by_space_desc();
  auto& victim = system.deploy(order[0]);
  system.deploy(order[1]);
  system.deploy(order[2]);
  system.settle();
  system.undeploy(order[1]);

  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);
  const auto report =
      system.run_attack(AttackType::kDirect, order[2], order[0], 50);
  EXPECT_EQ(report.delivered, 0u);  // AS order[2] still cooperates
}

}  // namespace
}  // namespace discs
