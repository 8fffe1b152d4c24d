// Shared pieces of the DISCS benchmark: run configuration, the result a
// workload hands back (metrics + oracle tallies), timing helpers, and the
// in-memory span recorder the traced run uses.
//
// Every workload reports the same metric names (BENCHMARK.json lists them):
// the untraced run fills the end-to-end set, the traced run the per-layer
// set. kEndToEnd / kPerLayer below are the single source of those names.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced run), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kEndToEnd;
/// The per-layer metrics (traced run), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kPerLayer;

/// What a run is asked to do.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test-size inputs (small topologies, short streams); the benchmark
  /// proper always runs at full size.
  bool small = false;
  /// Where the traced run writes its span file ("" = do not write).
  std::string trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// A workload's result: oracle tallies plus the metrics of this run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Workload parameters, printed and hashed into the provenance record.
  std::vector<std::pair<std::string, std::string>> params;
  /// The first few oracle failures, for the human-readable report.
  std::vector<std::string> failures;

  /// Records `attempted` oracle checks of which `failed` disagreed.
  void tally(std::uint64_t attempted_n, std::uint64_t failed_n,
             const std::string& what);
  void set(const std::string& name, double value);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  template <typename T>
  void param(const std::string& key, const T& value) {
    params.emplace_back(key, std::to_string(value));
  }
};

/// Span recorder for the traced run: one per thread, spans kept in memory
/// and written out when the run ends. A span's layer is its name up to the
/// first '.'; spans nest by scope on one thread, so a span's self time is
/// its duration minus the durations of its direct children.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::uint64_t group;   // batch / invocation id shared by its spans
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::uint32_t index_ = 0;
  };

  explicit Tracer(std::uint32_t thread_id = 0) : thread_id_(thread_id) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t thread_id() const { return thread_id_; }
  /// Self nanoseconds per layer name, over every recorded span.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ns_by_layer()
      const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // indices of currently open spans
  std::uint32_t thread_id_;
};

/// Opens a span when `tracer` is non-null; a no-op scope otherwise.
#define PERFBENCH_SPAN(tracer, name, group) \
  PERFBENCH_SPAN_AT(__LINE__, tracer, name, group)
#define PERFBENCH_SPAN_AT(line, tracer, name, group) \
  PERFBENCH_SPAN_NAMED(perfbench_span_##line, tracer, name, group)
#define PERFBENCH_SPAN_NAMED(var, tracer, name, group) \
  ::perfbench::Tracer::Scope var((tracer), (name), (group))

/// Adds the self_share.<layer> metrics (percent of traced time spent in each
/// layer's own calls) and writes the spans as a Chrome trace to `path`.
void report_spans(const std::vector<const Tracer*>& tracers,
                  const std::string& path, Outcome& out);

/// Tracing overhead: percent by which the traced loop's mean call cost
/// exceeds the untraced loop's.
[[nodiscard]] double overhead_pct(const std::vector<double>& untraced_ns,
                                  const std::vector<double>& traced_ns);

struct LoopStats;
/// The loop-derived per-layer metrics of a traced run (tracing overhead,
/// generator lag, per-layer self time) plus the span file.
void report_traced_loops(const LoopStats& untraced, const LoopStats& traced,
                         const std::vector<const Tracer*>& tracers,
                         const std::string& trace_path, Outcome& out);

/// What a workload's measured loop observed.
struct LoopStats {
  /// Per call: completion minus start (closed loop) or minus due time
  /// (open loop).
  std::vector<double> call_ns;
  /// Per call: completion minus start.
  std::vector<double> service_ns;
  /// Per call: start minus due time (open loop) or minus the previous
  /// call's completion (closed loop) — how late the generator ran.
  std::vector<double> lag_ns;
  /// Per call: operations it completed (packets or control messages).
  std::vector<double> ops;

  void record(double call, double service, double lag, double call_ops) {
    call_ns.push_back(call);
    service_ns.push_back(service);
    lag_ns.push_back(lag);
    ops.push_back(call_ops);
  }
  /// Open loop: the call was due at `due`.
  void record_open(Clock::time_point due, Clock::time_point start,
                   Clock::time_point end, double call_ops) {
    record(ns_between(due, end), ns_between(start, end), ns_between(due, start),
           call_ops);
  }
  /// Closed loop: the previous call completed at `previous_end`.
  void record_closed(Clock::time_point previous_end, Clock::time_point start,
                     Clock::time_point end, double call_ops) {
    record(ns_between(start, end), ns_between(start, end),
           ns_between(previous_end, start), call_ops);
  }
};

/// The end-to-end metrics of an untraced run.
void report_end_to_end(const LoopStats& loop, double setup_s, Outcome& out);

/// Runs `setup` at least `reps` times, and more (up to 32) while the total
/// stays under half a second, so a cheap set-up still yields a steady
/// median; returns the median wall time. `setup(i)` receives the repetition
/// index so it can keep the instances it needs.
template <typename Setup>
[[nodiscard]] double timed_setups(int reps, Setup&& setup) {
  std::vector<double> secs;
  double total = 0;
  for (int i = 0; i < reps || (total < 0.5 && i < 32); ++i) {
    const auto t0 = Clock::now();
    setup(i);
    secs.push_back(seconds_since(t0));
    total += secs.back();
  }
  return median(std::move(secs));
}

/// Every workload's synthetic internet is this one fixed snapshot (the
/// paper's snapshot date, as in bench_scale): the run seed draws traffic,
/// keys, churn and faults over it, so runs of different seeds do the same
/// work on different inputs.
inline constexpr std::uint64_t kTopologySeed = 20121011;

/// How many times each workload sets up (setup_s is their median).
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
