// The benchmark's own tests: a small-size run of each workload emits every
// metric of the set it was asked for, with its unit and zero oracle
// failures; and each oracle fires on the fault it guards against.
#include <gtest/gtest.h>

#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

RunConfig small_run(bool trace) {
  RunConfig rc;
  rc.seed = 7;
  rc.seconds = 0.2;
  rc.trace = trace;
  rc.small = true;
  return rc;
}

using Runner = Outcome (*)(const RunConfig&, Fault);

struct Case {
  const char* name;
  Runner run;
};

const Case kCases[] = {
    {"stamp_soak", &run_stamp_soak},
    {"verify_churn", &run_verify_churn},
    {"system_mix", &run_system_mix},
    {"control_mesh", &run_control_mesh},
};

void expect_metrics(const Outcome& out, const std::vector<MetricSpec>& specs,
                    const std::string& workload) {
  for (const MetricSpec& spec : specs) {
    const Metric* m = out.find(spec.name);
    ASSERT_NE(m, nullptr) << workload << " lacks " << spec.name;
    EXPECT_EQ(m->unit, spec.unit) << workload << " " << spec.name;
  }
}

TEST(PerfbenchWorkloads, UntracedRunEmitsEveryEndToEndMetric) {
  for (const Case& c : kCases) {
    const Outcome out = c.run(small_run(false), Fault::kNone);
    EXPECT_GT(out.attempted, 0u) << c.name;
    EXPECT_EQ(out.failed, 0u) << c.name << ": "
                              << (out.failures.empty() ? "" : out.failures[0]);
    expect_metrics(out, kEndToEnd, c.name);
    EXPECT_EQ(out.metrics.size(), kEndToEnd.size()) << c.name;
    EXPECT_GT(out.find("ops_per_s")->value, 0) << c.name;
    EXPECT_GT(out.find("setup_s")->value, 0) << c.name;
  }
}

TEST(PerfbenchWorkloads, TracedRunEmitsEveryPerLayerMetric) {
  for (const Case& c : kCases) {
    Outcome out = c.run(small_run(true), Fault::kNone);
    out.set("outcome.error_frac", 0);  // the driver fills this one in
    EXPECT_EQ(out.failed, 0u) << c.name << ": "
                              << (out.failures.empty() ? "" : out.failures[0]);
    expect_metrics(out, kPerLayer, c.name);
    EXPECT_EQ(out.metrics.size(), kPerLayer.size()) << c.name;
    EXPECT_GT(out.find("crypto.mac21_ns")->value, 0) << c.name;
    EXPECT_GT(out.find("system.send_batch_ns_per_pkt")->value, 0) << c.name;
    EXPECT_GT(out.find("eventloop.ns_per_event")->value, 0) << c.name;
  }
}

// Each oracle fails on the bug it guards.

TEST(PerfbenchOracles, StampSoakCatchesWrongKeyAtThePeer) {
  EXPECT_GT(run_stamp_soak(small_run(false), Fault::kFlipPeerVerifyKey).failed, 0u);
}

TEST(PerfbenchOracles, StampSoakCatchesSealedTableDivergingFromTrie) {
  EXPECT_GT(run_stamp_soak(small_run(false), Fault::kCorruptSealedPfx2as).failed,
            0u);
}

TEST(PerfbenchOracles, VerifyChurnCatchesRekeyWithoutGraceKey) {
  RunConfig rc = small_run(false);
  rc.seconds = 0.5;  // long enough for several re-keys
  EXPECT_GT(run_verify_churn(rc, Fault::kRekeyWithoutGrace).failed, 0u);
}

TEST(PerfbenchOracles, SystemMixCatchesWrongVerifyKeyAtVictim) {
  EXPECT_GT(run_system_mix(small_run(false), Fault::kWrongVerifyKeyAtVictim).failed,
            0u);
}

TEST(PerfbenchOracles, ControlMeshCatchesPeerDetachedBeforeInvoke) {
  EXPECT_GT(run_control_mesh(small_run(false), Fault::kDetachPeerBeforeInvoke).failed,
            0u);
}

}  // namespace
}  // namespace perfbench
