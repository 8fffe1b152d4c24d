// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, named and labeled, scraped into one coherent snapshot that
// the exporters (export.hpp) render as Prometheus text or JSON.
//
// Hot-path contract:
//  * Counter/Gauge/Histogram mutation is one relaxed atomic RMW — no locks,
//    safe from any thread, TSan-clean against a concurrent scrape.
//  * ShardedCounter spreads the cells across cache lines so N workers
//    incrementing "the same" counter never contend; the per-shard adds are
//    summed only at scrape time.
//  * Histogram bucket counts and the running sum are integers (the sum in
//    20-bit fixed point), so a given multiset of recorded values yields an
//    identical snapshot regardless of how threads interleaved — merged
//    shard data is deterministic, which the equivalence suites rely on.
//  * Registration is mutex-guarded and idempotent: asking for an existing
//    (name, labels) pair returns the same instrument, so components can
//    re-bind freely. Instruments live until the registry dies; collectors
//    (pull-mode views over existing Stats structs) can be removed, and
//    must be before their captured state dies.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace discs::telemetry {

/// Metric label set, e.g. {{"as", "7"}, {"verdict", "pass"}}. Order is
/// preserved in exports; (name, labels) identifies an instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotonic counter; one relaxed fetch_add per increment.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Counter split into cache-line-sized cells, one per worker shard: the
/// hot-path add touches only the caller's cell; value() folds the cells.
class ShardedCounter {
 public:
  explicit ShardedCounter(std::size_t shards)
      : cells_(shards == 0 ? 1 : shards) {}

  void add(std::size_t shard, std::uint64_t n = 1) {
    cells_[shard % cells_.size()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] std::size_t shard_count() const { return cells_.size(); }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<Cell> cells_;
};

/// Instantaneous signed value (queue depths, in-flight counts).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram over strictly increasing upper bounds (Prometheus
/// `le` semantics: bucket i counts bounds[i-1] < v <= bounds[i]). Bucket 0
/// doubles as the underflow catch-all (v <= bounds[0], negatives included)
/// and one extra bucket past the last bound catches overflow (v > max
/// bound, the `+Inf` bucket). The sum is kept in 2^-20 fixed point so
/// concurrent records from any interleaving produce the same total.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v);
  void record_n(double v, std::uint64_t n);

  struct Snapshot {
    std::vector<double> bounds;          // upper bounds as constructed
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
    std::uint64_t count = 0;
    double sum = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

  /// Common bound sets. Powers of two from 1 to 2^(n-1).
  static std::vector<double> pow2_bounds(std::size_t n);

 private:
  static constexpr double kSumScale = 1 << 20;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_fp_{0};
};

/// One pull-mode sample a collector contributes at scrape time (a view
/// over an existing Stats struct; the struct stays the source of truth).
struct Sample {
  std::string name;
  double value = 0;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
};

/// Everything the registry knows, frozen at one scrape.
struct MetricsSnapshot {
  struct Metric {
    std::string name;
    std::string help;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    double value = 0;               // counter / gauge
    Histogram::Snapshot histogram;  // kHistogram only
  };
  std::vector<Metric> metrics;
};

class MetricsRegistry {
 public:
  using CollectorId = std::uint64_t;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Idempotent: an existing (name, labels) pair returns the registered
  /// instrument. A kind mismatch on an existing name throws.
  Counter& counter(const std::string& name, const std::string& help = {},
                   const Labels& labels = {});
  ShardedCounter& sharded_counter(const std::string& name, std::size_t shards,
                                  const std::string& help = {},
                                  const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help = {},
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = {}, const Labels& labels = {});

  /// Pull-mode source: `fn` appends Samples at every scrape. The caller
  /// must remove_collector before anything `fn` captures dies.
  CollectorId add_collector(std::function<void(std::vector<Sample>&)> fn);
  void remove_collector(CollectorId id);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::size_t instrument_count() const;

  /// The process-wide default registry.
  static MetricsRegistry& global();

 private:
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<ShardedCounter> sharded;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find_locked(const std::string& name, const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<std::pair<CollectorId, std::function<void(std::vector<Sample>&)>>>
      collectors_;
  CollectorId next_collector_ = 1;
};

}  // namespace discs::telemetry
