#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"ops_per_s", "1/s"},
    {"call_p50_us", "us"},
    {"call_p95_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"crypto.mac21_ns", "ns"},
    {"crypto.mac_batch_ns_per_mac", "ns"},
    {"lpm.pfx2as_ns", "ns"},
    {"lpm.function_ns", "ns"},
    {"tuple.out_ns", "ns"},
    {"tuple.in_ns", "ns"},
    {"router.out_batch_ns_per_pkt", "ns"},
    {"router.in_batch_ns_per_pkt", "ns"},
    {"engine.out_ns_per_pkt", "ns"},
    {"engine.in_ns_per_pkt", "ns"},
    {"engine.doorbells_per_batch", "count"},
    {"engine.chunks_per_batch", "count"},
    {"engine.doorbells_per_chunk", "ratio"},
    {"engine.parks_per_batch", "count"},
    {"engine.wakeups_per_batch", "count"},
    {"engine.ring_full_stalls", "count"},
    {"txn.apply_ms_p50.key", "ms"},
    {"txn.apply_ms_p99.key", "ms"},
    {"txn.apply_ms_p50.function", "ms"},
    {"txn.apply_ms_p99.function", "ms"},
    {"txn.apply_ms_p50.pfx2as", "ms"},
    {"txn.apply_ms_p99.pfx2as", "ms"},
    {"txn.seal_s", "s"},
    {"stream.fill_ns_per_pkt", "ns"},
    {"sampler.ns_per_pkt", "ns"},
    {"loadgen.lag_p99_us", "us"},
    {"system.origin_of_ns", "ns"},
    {"system.path_us", "us"},
    {"system.paths_per_batch", "count"},
    {"system.engines_ns_per_pkt", "ns"},
    {"system.send_batch_ns_per_pkt", "ns"},
    {"concon.send_ns", "ns"},
    {"concon.messages", "count"},
    {"concon.handshakes", "count"},
    {"reliable.retransmits", "count"},
    {"reliable.delivery_failures", "count"},
    {"con_rou.txns_applied", "count"},
    {"eventloop.events", "count"},
    {"eventloop.ns_per_event", "ns"},
    {"control.converge_s", "s"},
    {"control.ttp_p50_ms", "sim_ms"},
    {"control.ttp_p99_ms", "sim_ms"},
    {"control.ctrl_msgs_per_s", "1/s"},
    {"outcome.error_frac", "ratio"},
    {"outcome.spoof_filtered_frac", "ratio"},
    {"trace.overhead_pct", "%"},
    {"self_share.perfbench", "%"},
    {"self_share.attack", "%"},
    {"self_share.dataplane", "%"},
    {"self_share.core", "%"},
    {"self_share.control", "%"},
    {"self_share.simkit", "%"},
    {"self_share.lpm", "%"},
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Outcome::tally(std::uint64_t attempted_n, std::uint64_t failed_n,
                    const std::string& what) {
  attempted += attempted_n;
  failed += failed_n;
  if (failed_n > 0 && failures.size() < 8) {
    failures.push_back(what + " (" + std::to_string(failed_n) + " of " +
                       std::to_string(attempted_n) + ")");
  }
}

void Outcome::set(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  for (const auto* list : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) {
        metrics.push_back({name, spec.unit, value});
        return;
      }
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

const Metric* Outcome::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t group)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  auto& spans = tracer_->spans_;
  index_ = static_cast<std::uint32_t>(spans.size());
  const std::uint32_t parent =
      tracer_->open_.empty() ? 0 : spans[tracer_->open_.back()].id;
  spans.push_back({name, now_ns(), 0, index_ + 1, parent, group});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = now_ns();
  tracer_->open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_ns_by_layer() const {
  // Children close before their parent, so subtracting every span's
  // duration from its parent's leaves each span's self time.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      self[s.parent - 1] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

void report_spans(const std::vector<const Tracer*>& tracers,
                  const std::string& path, Outcome& out) {
  std::map<std::string, double> self;
  double total = 0;
  for (const Tracer* t : tracers) {
    for (const auto& [layer, ns] : t->self_ns_by_layer()) {
      self[layer] += ns;
      total += ns;
    }
  }
  for (const MetricSpec& spec : kPerLayer) {
    const std::string name = spec.name;
    if (name.rfind("self_share.", 0) != 0) continue;
    const auto it = self.find(name.substr(11));
    out.set(name, it == self.end() || total <= 0 ? 0 : 100.0 * it->second / total);
  }
  if (path.empty()) return;
  // Chrome trace-event JSON ("X" complete events), one tid per thread.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  std::int64_t origin = 0;
  for (const Tracer* t : tracers) {
    for (const auto& s : t->spans()) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  // The file keeps the first kMaxWritten spans of each thread; the self-time
  // metrics above use all of them.
  constexpr std::size_t kMaxWritten = 100000;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (std::size_t i = 0; i < std::min(spans.size(), kMaxWritten); ++i) {
      const Tracer::Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                   "\"group\":%llu}}",
                   first ? "" : ",\n", s.name, t->thread_id(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, static_cast<unsigned long long>(s.group));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void report_end_to_end(const LoopStats& loop, double setup_s, Outcome& out) {
  // Throughput over the time spent inside the calls, taken per slice of
  // consecutive calls and reported as the median slice, so a burst of host
  // noise moves one slice rather than the whole figure.
  constexpr std::size_t kSlices = 10;
  const std::size_t n = loop.service_ns.size();
  std::vector<double> rates;
  for (std::size_t k = 0; k < kSlices; ++k) {
    double ops = 0, ns = 0;
    for (std::size_t i = n * k / kSlices; i < n * (k + 1) / kSlices; ++i) {
      ops += loop.ops[i];
      ns += loop.service_ns[i];
    }
    if (ns > 0) rates.push_back(ops / ns * 1e9);
  }
  out.set("ops_per_s", median(rates));
  out.set("call_p50_us", quantile(loop.call_ns, 0.5) / 1e3);
  out.set("call_p95_us", quantile(loop.call_ns, 0.95) / 1e3);
  out.set("setup_s", setup_s);
  out.set("peak_rss_mb", peak_rss_mb());
}

void report_traced_loops(const LoopStats& untraced, const LoopStats& traced,
                         const std::vector<const Tracer*>& tracers,
                         const std::string& trace_path, Outcome& out) {
  out.set("trace.overhead_pct",
          overhead_pct(untraced.service_ns, traced.service_ns));
  out.set("loadgen.lag_p99_us", quantile(untraced.lag_ns, 0.99) / 1e3);
  report_spans(tracers, trace_path, out);
}

double overhead_pct(const std::vector<double>& untraced_ns,
                    const std::vector<double>& traced_ns) {
  if (untraced_ns.empty() || traced_ns.empty()) return 0;
  const double u = std::accumulate(untraced_ns.begin(), untraced_ns.end(), 0.0) /
                   static_cast<double>(untraced_ns.size());
  const double t = std::accumulate(traced_ns.begin(), traced_ns.end(), 0.0) /
                   static_cast<double>(traced_ns.size());
  return u <= 0 ? 0 : 100.0 * (t - u) / u;
}

}  // namespace perfbench
