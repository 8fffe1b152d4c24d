// The benchmark driver: runs one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH]
//
// Prints a human-readable report, a `provenance {...}` line, and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (spans go to --trace-file). run.py builds this binary and
// is the command BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "crypto/aes_backend.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stamp_soak|verify_churn|system_mix|control_mesh --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\n",
               why);
  std::exit(2);
}

/// JSON string escaping for the few free-text fields we print.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      usage("arguments come in --key value pairs");
    }
    args[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  for (const char* key : {"workload", "seed", "seconds", "trace"}) {
    if (!args.contains(key)) usage((std::string("missing --") + key).c_str());
  }
  RunConfig rc;
  char* end = nullptr;
  rc.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') usage("--seed must be a whole number");
  rc.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(rc.seconds > 0) || rc.seconds > 600) {
    usage("--seconds must be in (0, 600]");
  }
  if (args["trace"] != "0" && args["trace"] != "1") usage("--trace must be 0 or 1");
  rc.trace = args["trace"] == "1";
  rc.trace_path = args.contains("trace-file") ? args["trace-file"] : "";

  const std::map<std::string, std::function<Outcome(const RunConfig&)>> workloads = {
      {"stamp_soak", [](const RunConfig& c) { return perfbench::run_stamp_soak(c); }},
      {"verify_churn", [](const RunConfig& c) { return perfbench::run_verify_churn(c); }},
      {"system_mix", [](const RunConfig& c) { return perfbench::run_system_mix(c); }},
      {"control_mesh", [](const RunConfig& c) { return perfbench::run_control_mesh(c); }},
  };
  const auto it = workloads.find(args["workload"]);
  if (it == workloads.end()) usage("unknown workload");
  Outcome out = it->second(rc);
  if (rc.trace) {
    out.set("outcome.error_frac",
            out.attempted == 0 ? 1.0
                               : static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted));
  }

  // Every metric of the requested set, each finite, and nothing else.
  const auto& specs = rc.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  if (out.metrics.size() != specs.size()) {
    std::fprintf(stderr, "perfbench: %zu metrics reported, %zu expected\n",
                 out.metrics.size(), specs.size());
    return 3;
  }
  for (const auto& spec : specs) {
    const perfbench::Metric* m = out.find(spec.name);
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   spec.name);
      return 3;
    }
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args["workload"].c_str(), static_cast<unsigned long long>(rc.seed),
              rc.seconds, rc.trace ? 1 : 0);
  for (const auto& [k, v] : out.params) std::printf("  param %-22s %s\n", k.c_str(), v.c_str());
  for (const auto& spec : specs) {
    std::printf("  %-34s %18.6f %s\n", spec.name, out.find(spec.name)->value,
                spec.unit);
  }
  std::printf("  oracle: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const std::string& f : out.failures) std::printf("  FAILED: %s\n", f.c_str());

  std::string params = "{";
  for (const auto& [k, v] : out.params) {
    params += (params.size() > 1 ? "," : "") + quoted(k) + ":" + quoted(v);
  }
  params += "}";
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  std::printf("provenance {\"aes_backend\":%s,\"hardware_concurrency\":%u,"
              "\"compiler\":%s,\"build_type\":%s,\"params\":%s}\n",
              quoted(discs::to_string(discs::aes_backend())).c_str(),
              std::thread::hardware_concurrency(), quoted(__VERSION__).c_str(),
              quoted(PERFBENCH_BUILD_TYPE).c_str(), params.c_str());

  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", out.find(spec.name)->value);
    json += std::string(first ? "" : ", ") + quoted(spec.name) +
            ": {\"value\": " + value + ", \"unit\": " + quoted(spec.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
