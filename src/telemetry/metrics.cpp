#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace discs::telemetry {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bounds must strictly increase");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::record(double v) { record_n(v, 1); }

void Histogram::record_n(double v, std::uint64_t n) {
  // First bound whose value covers v (le semantics); past-the-end = overflow.
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  const auto fp = static_cast<std::int64_t>(
      std::llround(v * kSumScale) * static_cast<std::int64_t>(n));
  sum_fp_.fetch_add(fp, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = static_cast<double>(sum_fp_.load(std::memory_order_relaxed)) /
             kSumScale;
  return snap;
}

std::vector<double> Histogram::pow2_bounds(std::size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double v = 1;
  for (std::size_t i = 0; i < n; ++i, v *= 2) bounds.push_back(v);
  return bounds;
}

MetricsRegistry::Entry* MetricsRegistry::find_locked(const std::string& name,
                                                     const Labels& labels) {
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels) return e.get();
  }
  return nullptr;
}

namespace {

[[noreturn]] void kind_mismatch(const std::string& name) {
  throw std::logic_error("MetricsRegistry: '" + name +
                         "' already registered with a different kind");
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard lock(mutex_);
  if (Entry* e = find_locked(name, labels)) {
    if (e->counter == nullptr) kind_mismatch(name);
    return *e->counter;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->kind = MetricKind::kCounter;
  entry->counter = std::make_unique<Counter>();
  Counter& out = *entry->counter;
  entries_.push_back(std::move(entry));
  return out;
}

ShardedCounter& MetricsRegistry::sharded_counter(const std::string& name,
                                                 std::size_t shards,
                                                 const std::string& help,
                                                 const Labels& labels) {
  std::lock_guard lock(mutex_);
  if (Entry* e = find_locked(name, labels)) {
    if (e->sharded == nullptr) kind_mismatch(name);
    return *e->sharded;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->kind = MetricKind::kCounter;
  entry->sharded = std::make_unique<ShardedCounter>(shards);
  ShardedCounter& out = *entry->sharded;
  entries_.push_back(std::move(entry));
  return out;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  std::lock_guard lock(mutex_);
  if (Entry* e = find_locked(name, labels)) {
    if (e->gauge == nullptr) kind_mismatch(name);
    return *e->gauge;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->kind = MetricKind::kGauge;
  entry->gauge = std::make_unique<Gauge>();
  Gauge& out = *entry->gauge;
  entries_.push_back(std::move(entry));
  return out;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help,
                                      const Labels& labels) {
  std::lock_guard lock(mutex_);
  if (Entry* e = find_locked(name, labels)) {
    if (e->histogram == nullptr) kind_mismatch(name);
    return *e->histogram;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->kind = MetricKind::kHistogram;
  entry->histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram& out = *entry->histogram;
  entries_.push_back(std::move(entry));
  return out;
}

MetricsRegistry::CollectorId MetricsRegistry::add_collector(
    std::function<void(std::vector<Sample>&)> fn) {
  std::lock_guard lock(mutex_);
  const CollectorId id = next_collector_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::remove_collector(CollectorId id) {
  std::lock_guard lock(mutex_);
  std::erase_if(collectors_, [id](const auto& c) { return c.first == id; });
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.metrics.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricsSnapshot::Metric m;
    m.name = e->name;
    m.help = e->help;
    m.labels = e->labels;
    m.kind = e->kind;
    if (e->counter) {
      m.value = static_cast<double>(e->counter->value());
    } else if (e->sharded) {
      m.value = static_cast<double>(e->sharded->value());
    } else if (e->gauge) {
      m.value = static_cast<double>(e->gauge->value());
    } else if (e->histogram) {
      m.histogram = e->histogram->snapshot();
    }
    snap.metrics.push_back(std::move(m));
  }
  std::vector<Sample> samples;
  for (const auto& [id, fn] : collectors_) fn(samples);
  for (Sample& s : samples) {
    MetricsSnapshot::Metric m;
    m.name = std::move(s.name);
    m.labels = std::move(s.labels);
    m.kind = s.kind;
    m.value = s.value;
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

std::size_t MetricsRegistry::instrument_count() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace discs::telemetry
