// End-to-end distributed-tracing tests over the simulated control plane:
// one invocation at the victim must yield a single causal tree whose
// records span every participating controller's shard, populate the
// time-to-protection histogram at the peers (on the simulated clock: the
// modeled con-con + con-rou delay, not host time), and — when the sender
// has no tracer — put no context on the wire at all. Every controller event
// (delivery failures, detector triggers, drop-mode requests, teardowns,
// invocation windows) lands in the shard, the controller's only sink.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_merge.hpp"

namespace discs {
namespace {

using telemetry::ShardRecord;
using telemetry::TraceShard;
using telemetry::TraceSummary;
using telemetry::load_trace_shard;
using telemetry::summarize_traces;

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }

class TracePropagationTest : public ::testing::Test {
 protected:
  TracePropagationTest()
      : rpki_({{pfx("10.0.0.0/8"), {1}},
               {pfx("20.0.0.0/8"), {2}},
               {pfx("30.0.0.0/8"), {3}}}),
        net_(loop_, 10 * kMillisecond) {}

  ~TracePropagationTest() override {
    for (const std::string& path : shard_paths_) std::remove(path.c_str());
  }

  std::unique_ptr<Controller> make_controller(AsNumber as,
                                              ControllerConfig cfg = {}) {
    cfg.as = as;
    cfg.seed = as * 1000 + 7;
    return std::make_unique<Controller>(cfg, loop_, net_, rpki_);
  }

  /// Opens a shard-backed tracer for `as` and attaches it to `c`.
  telemetry::SpanTracer* attach_tracer(Controller& c, AsNumber as) {
    const std::string path = ::testing::TempDir() + "discs_prop_" +
                             std::to_string(::getpid()) + "_as" +
                             std::to_string(as) + ".jsonl";
    shard_paths_.push_back(path);
    auto tracer = std::make_unique<telemetry::SpanTracer>(as);
    if (!tracer->open(path, loop_.now())) ADD_FAILURE() << path;
    c.set_span_tracer(tracer.get());
    tracers_.push_back(std::move(tracer));
    return tracers_.back().get();
  }

  void flood_ads(std::vector<Controller*> controllers) {
    for (Controller* a : controllers) {
      for (Controller* b : controllers) {
        if (a != b) b->discover(a->advertisement());
      }
    }
    loop_.run_until(loop_.now() + 30 * kSecond);
  }

  std::vector<TraceShard> load_shards() {
    std::vector<TraceShard> shards;
    for (auto& tracer : tracers_) tracer->flush();
    for (const std::string& path : shard_paths_) {
      TraceShard shard;
      if (load_trace_shard(path, shard)) shards.push_back(std::move(shard));
    }
    return shards;
  }

  double ttp_count(const telemetry::MetricsRegistry& registry) {
    double total = 0;
    for (const auto& m : registry.snapshot().metrics) {
      if (m.name == "discs_time_to_protection_seconds") {
        total += static_cast<double>(m.histogram.count);
      }
    }
    return total;
  }

  double ttp_sum(const telemetry::MetricsRegistry& registry) {
    double total = 0;
    for (const auto& m : registry.snapshot().metrics) {
      if (m.name == "discs_time_to_protection_seconds") {
        total += m.histogram.sum;
      }
    }
    return total;
  }

  /// The span/instant records named `name` in `shard`.
  static std::vector<ShardRecord> named(const TraceShard& shard,
                                        const std::string& name) {
    std::vector<ShardRecord> out;
    for (const auto& r : shard.records) {
      if (r.name == name) out.push_back(r);
    }
    return out;
  }

  static std::uint64_t arg(const ShardRecord& r, const std::string& key) {
    for (const auto& [k, v] : r.args) {
      if (k == key) return v;
    }
    ADD_FAILURE() << r.name << " has no arg " << key;
    return 0;
  }

  InternetDataset rpki_;
  EventLoop loop_;
  ConConNetwork net_;
  std::vector<std::unique_ptr<telemetry::SpanTracer>> tracers_;
  std::vector<std::string> shard_paths_;
};

TEST_F(TracePropagationTest, OneInvocationYieldsOneCausalTreeAcrossNodes) {
  auto c1 = make_controller(1);
  auto c2 = make_controller(2);
  auto c3 = make_controller(3);
  attach_tracer(*c1, 1);
  attach_tracer(*c2, 2);
  attach_tracer(*c3, 3);

  telemetry::MetricsRegistry registry;
  c2->bind_metrics(registry);
  c3->bind_metrics(registry);

  flood_ads({c1.get(), c2.get(), c3.get()});
  ASSERT_TRUE(c1->is_peer(2));
  ASSERT_TRUE(c1->is_peer(3));

  InvocationTriple triple;
  triple.victim_prefix = pfx("10.0.0.0/8");
  triple.functions = kInvokeAll;
  EXPECT_EQ(c1->invoke({triple}), 2u);
  loop_.run_until(loop_.now() + 10 * kSecond);

  // Both peers applied the filter and measured time-to-protection.
  EXPECT_EQ(ttp_count(registry), 2.0);

  // The three shards stitch into one invocation trace spanning all nodes.
  const auto shards = load_shards();
  ASSERT_EQ(shards.size(), 3u);
  const auto summaries = summarize_traces(shards);
  const TraceSummary* invocation = nullptr;
  for (const auto& s : summaries) {
    if (s.root_name == "invocation") {
      EXPECT_EQ(invocation, nullptr) << "more than one invocation trace";
      invocation = &s;
    }
  }
  ASSERT_NE(invocation, nullptr) << "no trace rooted at an invocation span";
  EXPECT_EQ(invocation->nodes, (std::set<std::uint32_t>{1, 2, 3}));
  EXPECT_GE(invocation->filter_installs, 2u);
  EXPECT_GE(invocation->spans, 3u);  // root + two execute_invocation

  // Wire records exist on both ends: the victim logged sends of the
  // InvocationRequest (msg type 6), each peer the matching recv.
  bool victim_sent = false, peer_received = false;
  for (const auto& shard : shards) {
    for (const auto& r : shard.records) {
      if (r.kind == ShardRecord::Kind::kSend && shard.as == 1 && r.msg == 6 &&
          r.trace == invocation->trace_id) {
        victim_sent = true;
      }
      if (r.kind == ShardRecord::Kind::kRecv && shard.as != 1 && r.msg == 6 &&
          r.trace == invocation->trace_id) {
        peer_received = true;
      }
    }
  }
  EXPECT_TRUE(victim_sent);
  EXPECT_TRUE(peer_received);

  c2->unbind_metrics();
  c3->unbind_metrics();
}

TEST_F(TracePropagationTest, UntracedSenderPutsNoContextOnTheWire) {
  auto c1 = make_controller(1);  // victim: no tracer attached
  auto c2 = make_controller(2);
  attach_tracer(*c2, 2);

  telemetry::MetricsRegistry registry;
  c2->bind_metrics(registry);

  flood_ads({c1.get(), c2.get()});
  ASSERT_TRUE(c1->is_peer(2));

  InvocationTriple triple;
  triple.victim_prefix = pfx("10.0.0.0/8");
  triple.functions = kInvokeAll;
  EXPECT_EQ(c1->invoke({triple}), 1u);
  loop_.run_until(loop_.now() + 10 * kSecond);

  // The peer executed the window (metrics prove it) but saw no trace
  // context: no recv records in its shard, no TTP sample, no spans rooted
  // in a foreign trace.
  EXPECT_EQ(ttp_count(registry), 0.0);
  const auto shards = load_shards();
  ASSERT_EQ(shards.size(), 1u);
  for (const auto& r : shards[0].records) {
    EXPECT_NE(r.kind, ShardRecord::Kind::kRecv);
    EXPECT_NE(r.name, "execute_invocation");
  }

  c2->unbind_metrics();
}

TEST_F(TracePropagationTest, TimeToProtectionReadsTheSimulatedClock) {
  // 10 ms con-con latency (the fixture's network) + 5 ms con-rou latency.
  // The invocation follows peering, so the TLS sessions are live and no
  // handshake delay applies: protection lands exactly 15 ms of simulated
  // time after the victim emits the request, at both peers.
  ControllerConfig cfg;
  cfg.con_rou_latency = 5 * kMillisecond;
  auto c1 = make_controller(1, cfg);
  auto c2 = make_controller(2, cfg);
  auto c3 = make_controller(3, cfg);
  attach_tracer(*c1, 1);
  attach_tracer(*c2, 2);
  attach_tracer(*c3, 3);

  telemetry::MetricsRegistry registry;
  c2->bind_metrics(registry);
  c3->bind_metrics(registry);

  flood_ads({c1.get(), c2.get(), c3.get()});
  ASSERT_TRUE(c1->is_peer(2));
  ASSERT_TRUE(c1->is_peer(3));

  InvocationTriple triple;
  triple.victim_prefix = pfx("10.0.0.0/8");
  triple.functions = kInvokeAll;
  EXPECT_EQ(c1->invoke({triple}), 2u);
  loop_.run_until(loop_.now() + 10 * kSecond);

  const auto shards = load_shards();
  ASSERT_EQ(shards.size(), 3u);
  for (const auto& shard : shards) {
    if (shard.as == 1) continue;
    const auto installs = named(shard, "filter_install");
    ASSERT_EQ(installs.size(), 1u) << "AS " << shard.as;
    EXPECT_EQ(arg(installs[0], "ttp_us"), 15000u) << "AS " << shard.as;
  }
  EXPECT_EQ(ttp_count(registry), 2.0);
  EXPECT_NEAR(ttp_sum(registry), 0.030, 1e-6);

  c2->unbind_metrics();
  c3->unbind_metrics();
}

TEST_F(TracePropagationTest, EveryControllerEventReachesTheShard) {
  ControllerConfig cfg;
  cfg.detect_threshold = 3;
  cfg.reliability.max_retries = 2;
  auto c1 = make_controller(1, cfg);
  auto c2 = make_controller(2, cfg);
  attach_tracer(*c1, 1);
  attach_tracer(*c2, 2);
  flood_ads({c1.get(), c2.get()});
  ASSERT_TRUE(c1->is_peer(2));

  // An invocation: one window span per triple, lasting the window.
  InvocationTriple triple;
  triple.victim_prefix = pfx("10.0.0.0/8");
  triple.functions = kInvokeAll;
  triple.duration = 20 * kSecond;
  EXPECT_EQ(c1->invoke({triple}), 1u);
  loop_.run_until(loop_.now() + kSecond);

  // Alarm samples from one source AS cross the detection threshold: the
  // detector fires and the controller asks its peers to quit alarm mode.
  for (int i = 0; i < 3; ++i) c2->on_alarm_sample({loop_.now(), 1, true});
  loop_.run_until(loop_.now() + kSecond);

  // A teardown shipped into a partition: the notice runs out of retries.
  FaultPlan plan;
  plan.partitions.push_back({1, 2, loop_.now(), loop_.now() + kHour});
  net_.set_fault_plan(plan);
  c1->tear_down_peering(2);
  loop_.run_until(loop_.now() + kMinute);
  ASSERT_EQ(c1->link().stats().delivery_failures, 1u);

  const auto shards = load_shards();
  ASSERT_EQ(shards.size(), 2u);
  const TraceShard& victim = shards[0].as == 1 ? shards[0] : shards[1];
  const TraceShard& peer = shards[0].as == 1 ? shards[1] : shards[0];

  const auto windows = named(victim, "invocation_window");
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].kind, ShardRecord::Kind::kSpan);
  EXPECT_EQ(windows[0].dur, 20 * kSecond);
  const auto roots = named(victim, "invocation");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(windows[0].trace, roots[0].trace);
  EXPECT_EQ(windows[0].parent, roots[0].span);

  const auto triggers = named(peer, "detector_trigger");
  ASSERT_EQ(triggers.size(), 1u);
  EXPECT_EQ(arg(triggers[0], "source_as"), 1u);
  EXPECT_EQ(named(peer, "drop_mode_requested").size(), 1u);

  const auto teardowns = named(victim, "peering_teardown");
  ASSERT_EQ(teardowns.size(), 1u);
  EXPECT_EQ(arg(teardowns[0], "peer"), 2u);
  const auto failures = named(victim, "delivery_failure");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].kind, ShardRecord::Kind::kInstant);
  EXPECT_EQ(arg(failures[0], "peer"), 2u);
}

}  // namespace
}  // namespace discs
