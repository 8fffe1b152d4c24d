// Chaos convergence suite (ISSUE 4 tentpole proof): the control plane must
// reach the same steady state over a hostile con-con channel — message
// loss, duplication, reordering, latency jitter, and timed partitions — as
// it does over a perfect one. Every trial is fully deterministic (seeded
// FaultPlan + seeded controllers over the discrete-event loop), so a
// failing seed reproduces exactly.
//
// The worlds are built from ONE scenario template (kChaosTemplate below) in
// the scenario DSL: each trial appends its fault plan and checkpoint
// schedule as spec lines and hands the text to ScenarioRunner, which
// replays the exact construction the hand-rolled fixture used to do
// (pinned per-controller seeds, full-mesh discovery, conditional fault
// installation). run_to_checkpoint() slices the schedule so the gtest
// assertions interleave between phases.
//
// The companion lossless check pins that the fault layer is pay-for-play:
// an explicitly installed FaultPlan{} draws no randomness and produces
// byte-for-byte the ChannelStats of a channel that never heard of faults.
//
// The driver accepts two telemetry flags in addition to the gtest ones
// (defining our own main keeps gtest_main's out of the link):
//   --trace FILE    write a Chrome trace_event JSON of every trial's
//                   control-plane activity (peering/re-key spans,
//                   invocation windows, delivery failures), one process
//                   row per AS. Each AS traces through one SpanTracer
//                   that outlives every trial world, so trace contexts
//                   ride the simulated wire as they do under any tracer;
//                   the per-AS shards (FILE.as<N>.jsonl) are merged into
//                   FILE at exit and removed.
//   --metrics FILE  write a metrics JSON snapshot; each ChaosWorld folds
//                   its channel/fault/reliability counters into the global
//                   registry at teardown
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_merge.hpp"

namespace {

// Set from main before RUN_ALL_TESTS (empty = no tracing). One tracer per
// AS, created on first use; all of them outlive every world.
std::string g_trace_path;
std::map<discs::AsNumber, std::unique_ptr<discs::telemetry::SpanTracer>>
    g_tracers;

std::string shard_path(discs::AsNumber as) {
  return g_trace_path + ".as" + std::to_string(as) + ".jsonl";
}

discs::telemetry::SpanTracer* tracer_for(discs::AsNumber as) {
  auto& tracer = g_tracers[as];
  if (tracer == nullptr) {
    tracer = std::make_unique<discs::telemetry::SpanTracer>(as);
    if (!tracer->open(shard_path(as))) ADD_FAILURE() << shard_path(as);
  }
  return tracer.get();
}

}  // namespace

namespace discs {
namespace {

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }

/// Root of the per-trial seed derivation. CI sweeps a small matrix of
/// roots via DISCS_CHAOS_ROOT_SEED; every root in the matrix is pinned
/// (each run is still fully deterministic, never sampled).
std::uint64_t chaos_root_seed() {
  if (const char* env = std::getenv("DISCS_CHAOS_ROOT_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xc4a05;
}

/// The one scenario template every chaos world grows from: three DASes
/// (AS 1..3) plus a legacy AS 4 on a 10 ms channel, controller seeds
/// pinned to the historical as*1000+7 values. Trials append fault lines
/// and an `at ...` schedule before parsing.
constexpr char kChaosTemplate[] = R"(scenario chaos
world control
topology rpki
channel.latency 10ms
drain 0s
rpki 10.0.0.0/8 1
rpki 20.0.0.0/8 2
rpki 30.0.0.0/8 3
rpki 40.0.0.0/8 4
controller.peering_delay 2s
deploy 1 seed=1007
deploy 2 seed=2007
deploy 3 seed=3007
)";

/// A chaos world assembled by ScenarioRunner from template + extra spec
/// lines. Construction throws (failing the test) on a malformed spec.
struct ChaosWorld {
  explicit ChaosWorld(const std::string& spec_text) {
    auto parsed = scenario::parse_scenario(spec_text);
    if (!parsed.ok()) {
      throw std::runtime_error("chaos spec: " + parsed.error().to_string());
    }
    runner.emplace(std::move(*parsed));
    runner->build();
    if (!g_trace_path.empty()) {
      for (Controller* c : runner->controllers()) {
        c->set_span_tracer(tracer_for(c->as_number()));
      }
    }
  }

  /// Folds this world's channel, fault, and reliability counters into the
  /// global registry. Worlds are per-trial and die with their controllers,
  /// so the counters are accumulated by value at teardown instead of
  /// leaving pull-mode collectors behind over freed objects.
  ~ChaosWorld() {
    auto& reg = telemetry::MetricsRegistry::global();
    reg.counter("discs_chaos_worlds_total").add();
    const FaultStats& f = runner->net().fault_stats();
    reg.counter("discs_chaos_faults_total", "", {{"fault", "drop"}})
        .add(f.dropped);
    reg.counter("discs_chaos_faults_total", "", {{"fault", "duplicate"}})
        .add(f.duplicated);
    reg.counter("discs_chaos_faults_total", "", {{"fault", "partition"}})
        .add(f.partition_drops);
    const ChannelStats& ch = runner->net().stats();
    reg.counter("discs_chaos_channel_messages_total").add(ch.messages);
    reg.counter("discs_chaos_channel_bytes_total").add(ch.bytes);
    reg.counter("discs_chaos_channel_handshakes_total").add(ch.handshakes);
    ReliabilityStats rs;
    for (const Controller* c : runner->controllers()) {
      const ReliabilityStats& s = c->link().stats();
      rs.reliable_sends += s.reliable_sends;
      rs.retransmits += s.retransmits;
      rs.delivery_failures += s.delivery_failures;
      rs.duplicates_suppressed += s.duplicates_suppressed;
    }
    reg.counter("discs_chaos_reliable_sends_total").add(rs.reliable_sends);
    reg.counter("discs_chaos_retransmits_total").add(rs.retransmits);
    reg.counter("discs_chaos_delivery_failures_total")
        .add(rs.delivery_failures);
    reg.counter("discs_chaos_duplicates_suppressed_total")
        .add(rs.duplicates_suppressed);
  }

  bool run_to(const std::string& checkpoint) {
    return runner->run_to_checkpoint(checkpoint);
  }

  Controller& as(AsNumber n) { return *runner->controller(n); }
  EventLoop& loop() { return runner->loop(); }
  ConConNetwork& net() { return runner->net(); }
  const std::vector<Controller*>& controllers() {
    return runner->controllers();
  }
  [[nodiscard]] std::size_t total_windows() const {
    return runner->total_windows();
  }

  std::optional<scenario::ScenarioRunner> runner;
};

/// Both key directions of a peered pair agree end to end: the stamping key
/// each side holds toward the other equals the verification key the other
/// holds for it, and no grace key lingers.
void expect_pair_key_consistent(Controller& a, Controller& b) {
  ASSERT_TRUE(a.is_peer(b.as_number()))
      << a.as_number() << " does not peer " << b.as_number();
  ASSERT_TRUE(b.is_peer(a.as_number()));
  const auto* stamp = a.tables().key_s.find(b.as_number());
  const auto* verify = b.tables().key_v.find(a.as_number());
  ASSERT_NE(stamp, nullptr);
  ASSERT_NE(verify, nullptr);
  EXPECT_EQ(stamp->active, verify->active)
      << "key_{" << a.as_number() << "," << b.as_number() << "} diverged";
  EXPECT_FALSE(verify->previous.has_value())
      << "grace key never dropped for key_{" << a.as_number() << ","
      << b.as_number() << "}";
}

/// One full control-plane life cycle under the given per-trial fault seed:
/// discovery + peering, a re-key round that straddles a partition between
/// AS 1 and AS 2, and an invocation whose windows must deploy and then
/// expire without leaving orphans.
void run_chaos_trial(std::uint64_t fault_seed) {
  std::ostringstream text;
  text << kChaosTemplate
       // 30% loss per copy means a retry round trip fails with p ~ 0.51;
       // twelve transmissions push a delivery failure below ~3e-4 per
       // message, and the fixed seeds below are verified to converge with
       // zero failures.
       << "reliability.max_retries 12\n"
          "fault.drop 0.3\n"
          "fault.duplicate 0.1\n"
          "fault.reorder 50ms\n"
          "fault.jitter 20ms\n"
          "fault.partition 1 2 70s 73s\n"
       << "fault.seed " << fault_seed << "\n"
       << "at 60s checkpoint peered\n"
          "at 70s rekey @0\n"
          "at 140s checkpoint rekeyed\n";
  ChaosWorld world(text.str());

  // Phase 1: peering + initial keys converge despite the chaos.
  ASSERT_TRUE(world.run_to("peered"));
  for (auto* a : world.controllers()) {
    for (auto* b : world.controllers()) {
      if (a != b) expect_pair_key_consistent(*a, *b);
    }
  }

  // Phase 2: AS 1 re-keys every peer at t=70s — inside the 70s..73s
  // partition toward AS 2, so that pair's KeyInstall/acks must survive on
  // retransmits alone until the partition heals.
  ASSERT_TRUE(world.run_to("rekeyed"));
  EXPECT_GE(world.as(1).stats().rekeys_completed, 2u);
  for (auto* a : world.controllers()) {
    for (auto* b : world.controllers()) {
      if (a != b) expect_pair_key_consistent(*a, *b);
    }
  }

  // Phase 3: an invocation with a short window. After the retransmit tail
  // plus the window plus the expiry sweep, every function table must be
  // empty again (deployed-then-expired, never orphaned) and the peers'
  // epochs must have advanced (the installs really applied).
  const TableEpoch epoch2 = world.as(2).tables().applied_epoch();
  const TableEpoch epoch3 = world.as(3).tables().applied_epoch();
  EXPECT_EQ(world.as(1).invoke_ddos_defense(pfx("10.1.0.0/16"),
                                            /*spoofed_source=*/false,
                                            20 * kSecond),
            2u);
  world.loop().run_until(world.loop().now() + 90 * kSecond);
  EXPECT_GE(world.as(2).stats().invocations_received, 1u);
  EXPECT_GE(world.as(3).stats().invocations_received, 1u);
  EXPECT_GT(world.as(2).tables().applied_epoch(), epoch2);
  EXPECT_GT(world.as(3).tables().applied_epoch(), epoch3);
  EXPECT_EQ(world.total_windows(), 0u) << "orphaned function windows";

  // Reliability invariants: the chaos really bit (faults injected, repairs
  // happened), retransmission stayed bounded by the cap, and nothing was
  // abandoned.
  const auto max_retries =
      world.runner->spec().reliability.max_retries;
  EXPECT_GT(world.net().fault_stats().dropped, 0u);
  EXPECT_GT(world.net().fault_stats().duplicated, 0u);
  for (auto* c : world.controllers()) {
    const ReliabilityStats& rs = c->link().stats();
    EXPECT_EQ(rs.delivery_failures, 0u)
        << "AS " << c->as_number() << " abandoned a message";
    EXPECT_LE(rs.retransmits,
              rs.reliable_sends * static_cast<std::uint64_t>(max_retries));
    EXPECT_EQ(c->link().pending_count(), 0u)
        << "AS " << c->as_number() << " still has unsettled sends";
  }
  const ReliabilityStats& rs1 = world.as(1).link().stats();
  EXPECT_GT(rs1.retransmits + rs1.duplicates_suppressed, 0u)
      << "chaos plan produced no observable repair work";
}

TEST(ChaosTest, ConvergesUnderLossDuplicationAndReordering) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    run_chaos_trial(derive_seed(chaos_root_seed(), trial));
  }
}

TEST(ChaosTest, PartitionOnlyPlanHealsByRetransmission) {
  // No random faults at all — just a hard 5 s outage between AS 1 and AS 2
  // right as peering starts. The pair must still converge once it heals.
  std::ostringstream text;
  text << kChaosTemplate
       << "reliability.max_retries 12\n"
          "fault.partition 1 2 0s 5s\n"
          "at 60s checkpoint converged\n";
  ChaosWorld world(text.str());
  ASSERT_TRUE(world.run_to("converged"));
  expect_pair_key_consistent(world.as(1), world.as(2));
  expect_pair_key_consistent(world.as(2), world.as(1));
  EXPECT_GT(world.net().fault_stats().partition_drops, 0u);
  for (auto* c : world.controllers()) {
    EXPECT_EQ(c->link().stats().delivery_failures, 0u);
  }
}

/// Runs the reference scenario (peer, re-key, invoke, drain) and returns
/// the channel's cost accounting.
ChannelStats run_reference_scenario(bool install_lossless_plan,
                                    FaultStats* fault_stats) {
  std::ostringstream text;
  text << kChaosTemplate
       << "at 30s rekey @0\n"
          "at 40s invoke @0 10.1.0.0/16 direct 5s\n"
          "at 60s checkpoint end\n";
  ChaosWorld world(text.str());
  if (install_lossless_plan) world.net().set_fault_plan(FaultPlan{});
  EXPECT_TRUE(world.run_to("end"));
  if (fault_stats != nullptr) *fault_stats = world.net().fault_stats();
  return world.net().stats();
}

TEST(ChaosTest, LosslessFaultPlanReproducesChannelStatsExactly) {
  FaultStats faults;
  const ChannelStats baseline = run_reference_scenario(false, nullptr);
  const ChannelStats with_plan = run_reference_scenario(true, &faults);

  EXPECT_EQ(baseline.messages, with_plan.messages);
  EXPECT_EQ(baseline.bytes, with_plan.bytes);
  EXPECT_EQ(baseline.handshakes, with_plan.handshakes);
  EXPECT_EQ(baseline.session_resumptions, with_plan.session_resumptions);
  EXPECT_EQ(baseline.peak_concurrent_sessions, with_plan.peak_concurrent_sessions);
  EXPECT_EQ(baseline.sessions_expired, with_plan.sessions_expired);
  EXPECT_TRUE(baseline == with_plan);  // the defaulted operator== agrees
  EXPECT_TRUE(faults == FaultStats{});  // and the fault layer never fired
}

// Con-con volume by message type, read back through /metrics: in a
// lossless world that peers, re-keys and invokes, every envelope crosses
// some controller's ReliableLink, so the per-type sent counters summed
// over all links account for every message the channel carried, and each
// one is received exactly once.
TEST(ChaosTest, PerTypeMessageCountersAccountForEveryChannelMessage) {
  telemetry::MetricsRegistry registry;
  std::ostringstream text;
  text << kChaosTemplate
       << "at 30s rekey @0\n"
          "at 40s invoke @0 10.1.0.0/16 direct 5s\n"
          "at 60s checkpoint end\n";
  ChaosWorld world(text.str());
  for (Controller* c : world.controllers()) c->bind_metrics(registry);
  ASSERT_TRUE(world.run_to("end"));

  std::map<std::string, double> sent;
  std::map<std::string, double> received;
  for (const auto& m : registry.snapshot().metrics) {
    std::string type;
    for (const auto& [key, value] : m.labels) {
      if (key == "type") type = value;
    }
    if (m.name == "discs_concon_messages_sent_total") sent[type] += m.value;
    if (m.name == "discs_concon_messages_received_total") {
      received[type] += m.value;
    }
  }
  double sent_total = 0;
  for (const auto& [type, n] : sent) sent_total += n;
  EXPECT_EQ(sent_total, static_cast<double>(world.net().stats().messages));
  EXPECT_EQ(sent, received);

  // The handshake shape: 3 pairs peer once (request + accept); each pair
  // installs a key in both directions (6 KeyInstalls) and AS 1's re-key
  // installs a fresh one toward each of its 2 peers, every install acked
  // once and each re-key confirmed by a RekeyComplete; the invocation goes
  // to both peers. Every send except the InvocationAccepts is reliable and
  // draws one DeliveryAck.
  const std::map<std::string, double> expected = {
      {"peering_request", 3},    {"peering_accept", 3},
      {"peering_reject", 0},     {"key_install", 8},
      {"key_install_ack", 8},    {"rekey_complete", 2},
      {"invocation_request", 2}, {"invocation_accept", 2},
      {"invocation_reject", 0},  {"alarm_quit", 0},
      {"peering_teardown", 0},   {"delivery_ack", 26},
  };
  EXPECT_EQ(sent, expected);
}

}  // namespace
}  // namespace discs

/// gtest_main replacement: strips --trace/--metrics before InitGoogleTest,
/// runs the suite, then persists the telemetry artifacts. CI validates both
/// files as JSON, so a write failure must fail the run even when every
/// test passed.
int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> gtest_args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      g_trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      gtest_args.push_back(argv[i]);
    }
  }
  int gtest_argc = static_cast<int>(gtest_args.size());
  ::testing::InitGoogleTest(&gtest_argc, gtest_args.data());

  const int rc = RUN_ALL_TESTS();

  bool io_ok = true;
  if (!g_trace_path.empty()) {
    std::vector<std::string> shards;
    for (const auto& [as, tracer] : g_tracers) shards.push_back(shard_path(as));
    io_ok = discs::telemetry::write_chrome_trace(shards, g_trace_path);
    for (const std::string& shard : shards) std::remove(shard.c_str());
  }
  if (!metrics_path.empty() &&
      !discs::telemetry::write_metrics_json(
          discs::telemetry::MetricsRegistry::global(), metrics_path)) {
    std::fprintf(stderr, "chaos_test: cannot write metrics to %s\n",
                 metrics_path.c_str());
    io_ok = false;
  }
  return io_ok ? rc : (rc != 0 ? rc : 1);
}
