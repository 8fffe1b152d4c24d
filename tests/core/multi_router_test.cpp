// Multi-router DAS tests: one controller pushing tables to several border
// routers (the route-reflector structure of the paper's Figure 2). Each
// border router is one shard of the controller's DataPlaneEngine; a packet
// traverses the shard its flow hashes to.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/discs_system.hpp"

namespace discs {
namespace {

constexpr std::size_t kShards = 4;

DiscsSystem::Config multi_router_config() {
  DiscsSystem::Config cfg;
  cfg.internet.num_ases = 32;
  cfg.internet.num_prefixes = 320;
  cfg.internet.seed = 99;
  cfg.seed = 5;
  cfg.controller.engine.shards = kShards;
  return cfg;
}

/// One sampled attack packet of `flow` per engine shard, keyed by the shard
/// it hashes to.
std::map<std::size_t, Ipv4Packet> packet_per_shard(
    DiscsSystem& system, const DataPlaneEngine& engine, const SpoofFlow& flow) {
  std::map<std::size_t, Ipv4Packet> by_shard;
  for (int tries = 0; by_shard.size() < engine.shard_count() && tries < 1000;
       ++tries) {
    Ipv4Packet packet = system.sampler().attack_packet(flow);
    by_shard.try_emplace(engine.shard_of(packet), std::move(packet));
  }
  return by_shard;
}

/// Runs `packet` through `engine` as a one-packet batch.
Verdict process_one(DataPlaneEngine& engine, Ipv4Packet packet, SimTime now,
                    bool outbound) {
  PacketBatch batch;
  batch.add(std::move(packet));
  return outbound ? engine.process_outbound(batch, now)[0]
                  : engine.process_inbound(batch, now)[0];
}

TEST(MultiRouterTest, EngineHasConfiguredShardCount) {
  DiscsSystem system(multi_router_config());
  const auto order = system.dataset().ases_by_space_desc();
  auto& c = system.deploy(order[0]);
  EXPECT_EQ(c.engine().shard_count(), kShards);
}

TEST(MultiRouterTest, AllShardsShareTheControllerTables) {
  DiscsSystem system(multi_router_config());
  const auto order = system.dataset().ases_by_space_desc();
  auto& victim = system.deploy(order[0]);
  auto& helper = system.deploy(order[1]);
  system.settle();
  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);

  // Every one of the helper's shards enforces DP: spoofed packets die no
  // matter which border they exit through.
  const SimTime now = system.now() + kMinute;
  const auto packets = packet_per_shard(
      system, helper.engine(),
      SpoofFlow{order[1], order[2], order[0], AttackType::kDirect});
  ASSERT_EQ(packets.size(), kShards);
  for (const auto& [shard, packet] : packets) {
    EXPECT_EQ(process_one(helper.engine(), packet, now, /*outbound=*/true),
              Verdict::kDropFiltered)
        << "shard " << shard;
  }
  EXPECT_EQ(helper.engine().stats().out_dropped, kShards);
}

TEST(MultiRouterTest, EndToEndFilteringAcrossShards) {
  DiscsSystem system(multi_router_config());
  const auto order = system.dataset().ases_by_space_desc();
  auto& victim = system.deploy(order[0]);
  auto& helper = system.deploy(order[1]);
  system.settle();
  victim.invoke_ddos_defense_all(false);
  system.settle(10 * kSecond);

  const auto report =
      system.run_attack(AttackType::kDirect, order[1], order[0], 200);
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.dropped_at_source, 200u);

  // Genuine traffic still flows through whichever shards it hits.
  for (int k = 0; k < 40; ++k) {
    auto p = system.sampler().legit_packet(order[1], order[0]);
    EXPECT_EQ(system.send_packet(order[1], p).outcome,
              DeliveryOutcome::kDelivered);
  }
  // The engine's merged stats account for the drops and the stamps.
  EXPECT_EQ(helper.engine().stats().out_dropped, 200u);
  EXPECT_GE(helper.engine().stats().out_stamped, 40u);
}

TEST(MultiRouterTest, AlarmModeAppliesToEveryShard) {
  DiscsSystem system(multi_router_config());
  const auto order = system.dataset().ases_by_space_desc();
  auto& victim = system.deploy(order[0]);
  system.deploy(order[1]);
  system.settle();
  std::vector<InvocationTriple> triples;
  for (const Prefix4& prefix : victim.local_prefixes()) {
    triples.push_back({prefix,
                       invoke_mask(InvokableFunction::kDp) |
                           invoke_mask(InvokableFunction::kCdp),
                       kHour});
  }
  victim.invoke(triples, /*alarm_mode=*/true);
  system.settle(5 * kSecond);
  EXPECT_TRUE(victim.engine().alarm_mode());

  // Unstamped packets from a legacy AS claiming the peer's space, one per
  // victim shard: every shard samples and passes them...
  const SimTime now = system.now() + kMinute;
  const SpoofFlow forged{order[2], order[1], order[0], AttackType::kDirect};
  const auto packets = packet_per_shard(system, victim.engine(), forged);
  ASSERT_EQ(packets.size(), kShards);
  for (const auto& [shard, packet] : packets) {
    EXPECT_EQ(process_one(victim.engine(), packet, now, /*outbound=*/false),
              Verdict::kPass)
        << "shard " << shard;
  }
  EXPECT_EQ(victim.engine().stats().in_spoof_sampled, kShards);

  // ...and after the victim quits alarm mode every shard drops them.
  victim.request_drop_mode();
  EXPECT_FALSE(victim.engine().alarm_mode());
  for (const auto& [shard, packet] : packets) {
    EXPECT_EQ(process_one(victim.engine(), packet, now, /*outbound=*/false),
              Verdict::kDropSpoofed)
        << "shard " << shard;
  }
}

}  // namespace
}  // namespace discs
