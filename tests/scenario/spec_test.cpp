// Parser/serializer contract: the canonical form round-trips byte-for-byte,
// typos and out-of-range values are rejected with line numbers, and the
// content hash is a pure function of the canonical form.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include "scenario/fuzz.hpp"

namespace discs::scenario {
namespace {

ScenarioSpec parse_ok(const std::string& text) {
  auto result = parse_scenario(text);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  return result.ok() ? std::move(*result) : ScenarioSpec{};
}

void expect_rejected(const std::string& text, const char* why) {
  const auto result = parse_scenario(text);
  EXPECT_FALSE(result.ok()) << "expected rejection: " << why;
}

constexpr char kMinimalSystem[] = "topology synthetic\n";

constexpr char kControlWorld[] = R"(world control
topology rpki
rpki 10.0.0.0/8 1
rpki 20.0.0.0/8 2
deploy 1 seed=1007
deploy 2
)";

TEST(ScenarioSpecTest, MinimalSpecParsesWithDefaults) {
  const ScenarioSpec spec = parse_ok(kMinimalSystem);
  EXPECT_EQ(spec.name, "unnamed");
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.world, WorldKind::kSystem);
  EXPECT_EQ(spec.synthetic.num_ases, 64u);
  EXPECT_EQ(spec.controller.max_peering_delay, 5 * kSecond);
  EXPECT_EQ(spec.reliability.max_retries, 8u);
  EXPECT_TRUE(spec.fault.lossless());
}

TEST(ScenarioSpecTest, SerializeParseRoundTripsByteForByte) {
  const char* docs[] = {
      kMinimalSystem,
      kControlWorld,
      "topology synthetic\n"
      "seed 0xdead\n"
      "drain 90s\n"
      "deploy.strategy random\n"
      "deploy.seed 5\n"
      "deploy.count 4\n"
      "fault.drop 0.3\n"
      "fault.jitter 20ms\n"
      "fault.partition 1 2 70s 73s\n"
      "at 30s invoke @0 all direct 20s\n"
      "at 35s attack reflection packets=100 batch=64 seed=9\n"
      "check orphan_freedom\n",
      "topology synthetic\n"
      "scale.flows 1048576\n"
      "scale.packets 4194304\n"
      "scale.chunk 8192\n"
      "scale.zipf_s 1.1\n"
      "scale.payload 32\n",
  };
  for (const char* doc : docs) {
    const ScenarioSpec spec = parse_ok(doc);
    const std::string canon = serialize_scenario(spec);
    const ScenarioSpec reparsed = parse_ok(canon);
    EXPECT_EQ(serialize_scenario(reparsed), canon) << doc;
  }
}

TEST(ScenarioSpecTest, RoundTripHoldsForFuzzMutants) {
  const ScenarioSpec base = parse_ok(
      "topology synthetic\n"
      "synthetic.ases 8\n"
      "synthetic.prefixes 16\n"
      "deploy.count 2\n"
      "at 10s invoke @0 all direct 10s\n"
      "at 12s attack direct packets=200\n");
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Xoshiro256 rng(seed);
    const ScenarioSpec mutant = mutate_scenario(base, rng);
    const std::string canon = serialize_scenario(mutant);
    const auto reparsed = parse_scenario(canon);
    ASSERT_TRUE(reparsed.ok())
        << "mutant (seed " << seed
        << ") does not re-parse: " << reparsed.error().message << "\n"
        << canon;
    EXPECT_EQ(serialize_scenario(*reparsed), canon) << "seed " << seed;
  }
}

TEST(ScenarioSpecTest, MutationIsDeterministic) {
  const ScenarioSpec base = parse_ok("topology synthetic\ndeploy.count 2\n");
  Xoshiro256 a(77);
  Xoshiro256 b(77);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(serialize_scenario(mutate_scenario(base, a)),
              serialize_scenario(mutate_scenario(base, b)));
  }
}

TEST(ScenarioSpecTest, TimeFormattingPicksLargestUnit) {
  EXPECT_EQ(format_time(0), "0s");
  EXPECT_EQ(format_time(20 * kMillisecond), "20ms");
  EXPECT_EQ(format_time(90 * kSecond), "90s");
  EXPECT_EQ(format_time(2 * kMinute), "2m");
  EXPECT_EQ(format_time(24 * kHour), "24h");
  EXPECT_EQ(format_time(1500), "1500us");
}

TEST(ScenarioSpecTest, HashIsStableAcrossCosmeticReformatting) {
  const ScenarioSpec a = parse_ok("topology synthetic\nseed 9\n");
  const ScenarioSpec b =
      parse_ok("# a comment\n  seed   9\n\ntopology synthetic\n");
  EXPECT_EQ(scenario_hash(a), scenario_hash(b));
  const ScenarioSpec c = parse_ok("topology synthetic\nseed 10\n");
  EXPECT_NE(scenario_hash(a), scenario_hash(c));
}

TEST(ScenarioSpecTest, UnknownKeysAndValuesAreRejected) {
  expect_rejected("topology synthetic\nbogus_key 1\n", "unknown key");
  expect_rejected("topology synthetic\nengine.cache_slots 1024\n",
                  "removed engine key");
  expect_rejected("topology martian\n", "unknown topology");
  expect_rejected("topology synthetic\nworld cloud\n", "unknown world");
  expect_rejected("topology synthetic\ndeploy.strategy best\n",
                  "unknown strategy");
  expect_rejected("topology synthetic\ncheck no_bugs_ever\n",
                  "unknown invariant");
  expect_rejected("topology synthetic\nat 5s teleport 1\n", "unknown action");
  expect_rejected("topology synthetic\nseed twelve\n", "non-numeric seed");
  expect_rejected("topology synthetic\ndrain 5 parsecs\n", "bad time unit");
}

// A DAS's border routers are its engine's shards (engine.shards); the
// separate per-controller router count is gone from the grammar.
TEST(ScenarioSpecTest, ControllerRoutersKeyIsRejected) {
  const auto result =
      parse_scenario("topology synthetic\ncontroller.routers 4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().to_string().find("unknown key 'controller.routers'"),
            std::string::npos)
      << result.error().to_string();
  EXPECT_TRUE(parse_scenario("topology synthetic\nengine.shards 4\n").ok());
}

TEST(ScenarioSpecTest, OutOfRangeValuesAreRejected) {
  expect_rejected("topology synthetic\nfault.drop 1.5\n", "probability > 1");
  expect_rejected("topology synthetic\nfault.drop -0.1\n", "probability < 0");
  expect_rejected("topology synthetic\nreliability.backoff 0.5\n",
                  "backoff < 1");
  expect_rejected("topology synthetic\nreliability.max_retries 0\n",
                  "zero retries");
  expect_rejected("topology synthetic\nsynthetic.ases 1\n", "< 2 ASes");
  expect_rejected(
      "topology synthetic\nsynthetic.ases 8\nsynthetic.prefixes 4\n",
      "fewer prefixes than ASes");
  expect_rejected("topology synthetic\nengine.min_chunk 0\n", "zero chunk");
  expect_rejected(
      "topology synthetic\nsynthetic.ases 8\nsynthetic.head_count 9\n",
      "explicit head_count larger than the AS count");
}

TEST(ScenarioSpecTest, ScaleKeysParseWithBoundsChecks) {
  const ScenarioSpec spec = parse_ok(
      "topology synthetic\n"
      "scale.flows 512\n"
      "scale.chunk 64\n"
      "scale.zipf_s 0.8\n");
  EXPECT_EQ(spec.scale.flows, 512u);
  EXPECT_EQ(spec.scale.chunk, 64u);
  EXPECT_DOUBLE_EQ(spec.scale.zipf_s, 0.8);
  EXPECT_EQ(spec.scale.packets, std::size_t{4} << 20);  // untouched default
  expect_rejected("topology synthetic\nscale.flows 0\n", "zero flows");
  expect_rejected("topology synthetic\nscale.packets 0\n", "zero packets");
  expect_rejected("topology synthetic\nscale.chunk 0\n", "zero chunk");
  expect_rejected("topology synthetic\nscale.zipf_s 0\n", "zipf_s not > 0");
  expect_rejected("topology synthetic\nscale.zipf_s -1.5\n", "negative zipf_s");
}

TEST(ScenarioSpecTest, DefaultHeadCountScalesDownWithSmallTopologies) {
  const ScenarioSpec spec = parse_ok("topology synthetic\nsynthetic.ases 8\n");
  EXPECT_EQ(spec.synthetic.head_count, 8u);
}

TEST(ScenarioSpecTest, StructuralMistakesAreRejected) {
  expect_rejected("", "missing topology");
  expect_rejected("topology rpki\n", "rpki topology without entries");
  expect_rejected("topology synthetic\nrpki 10.0.0.0/8 1\n",
                  "rpki lines under synthetic topology");
  expect_rejected("topology synthetic\nseed 1\nseed 2\n", "duplicate scalar");
  expect_rejected("topology synthetic\nat 10s settle\nat 5s settle\n",
                  "decreasing schedule");
  expect_rejected("world control\ntopology rpki\nrpki 10.0.0.0/8 1\n",
                  "control world without deploys");
  expect_rejected(std::string(kControlWorld) + "at 5s attack direct\n",
                  "attack step in a control world");
  expect_rejected(std::string(kControlWorld) + "deploy.count 2\n",
                  "strategy deployment in a control world");
}

TEST(ScenarioSpecTest, DeployOrderIndexReferencesParse) {
  const ScenarioSpec spec = parse_ok(
      "topology synthetic\n"
      "deploy.count 3\n"
      "at 10s rekey @2\n"
      "at 11s invoke @0 all reflection\n"
      "at 12s attack direct agent=@1 victim=@0\n");
  ASSERT_EQ(spec.schedule.size(), 3u);
  EXPECT_EQ(spec.schedule[0].as_index, 2);
  EXPECT_EQ(spec.schedule[1].as_index, 0);
  EXPECT_TRUE(spec.schedule[1].spoofed_source);
  EXPECT_EQ(spec.schedule[2].attack.agent_index, 1);
  EXPECT_EQ(spec.schedule[2].attack.victim_index, 0);
}

}  // namespace
}  // namespace discs::scenario
