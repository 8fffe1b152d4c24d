// Instrument semantics: bucket boundary placement (exact bounds, underflow,
// overflow), merge determinism of the fixed-point histogram sum, sharded
// counter folding, registry idempotence, and collector lifecycle. The
// threaded cases double as the TSan leg for the scrape-vs-mutate paths.
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

namespace discs::telemetry {
namespace {

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ShardedCounterTest, FoldsCellsAndWrapsShardIndex) {
  ShardedCounter c(4);
  EXPECT_EQ(c.shard_count(), 4u);
  c.add(0, 1);
  c.add(1, 10);
  c.add(3, 100);
  c.add(7, 1000);  // 7 % 4 == 3: out-of-range shards wrap, never crash
  EXPECT_EQ(c.value(), 1111u);
}

TEST(ShardedCounterTest, ZeroShardsClampsToOne) {
  ShardedCounter c(0);
  EXPECT_EQ(c.shard_count(), 1u);
  c.add(5, 3);
  EXPECT_EQ(c.value(), 3u);
}

TEST(GaugeTest, SetAddAndNegatives) {
  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
}

TEST(HistogramTest, BucketBoundariesUseLeSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  h.record(1.0);   // exactly on a bound -> that bucket (v <= 1)
  h.record(1.5);   // (1, 2]
  h.record(4.0);   // (2, 4], exact upper bound included
  h.record(4.01);  // > max bound -> overflow (+Inf) bucket
  h.record(-3.0);  // negatives land in the lowest bucket
  h.record(0.0);

  const auto snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.buckets.size(), 4u);  // bounds + overflow
  EXPECT_EQ(snap.buckets[0], 3u);      // 1.0, -3.0, 0.0
  EXPECT_EQ(snap.buckets[1], 1u);      // 1.5
  EXPECT_EQ(snap.buckets[2], 1u);      // 4.0
  EXPECT_EQ(snap.buckets[3], 1u);      // 4.01
  EXPECT_EQ(snap.count, 6u);
  EXPECT_NEAR(snap.sum, 1.0 + 1.5 + 4.0 + 4.01 - 3.0, 1e-4);
}

TEST(HistogramTest, RecordNCountsOncePerUnit) {
  Histogram h({10.0});
  h.record_n(3.0, 5);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.buckets[0], 5u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_NEAR(snap.sum, 15.0, 1e-4);
}

TEST(HistogramTest, Pow2BoundHelper) {
  const auto p = Histogram::pow2_bounds(4);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p.front(), 1.0);
  EXPECT_DOUBLE_EQ(p.back(), 8.0);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
}

// The merge-determinism contract the equivalence suites lean on: the same
// multiset of recorded values yields bit-identical snapshots (buckets AND
// sum) regardless of recording order or thread interleaving, because the
// sum is integer fixed-point, not floating-point accumulation.
TEST(HistogramTest, SnapshotIsOrderIndependent) {
  std::vector<double> values;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 40.0);
  for (int i = 0; i < 4096; ++i) values.push_back(dist(rng));

  Histogram forward({1, 2, 4, 8, 16, 32});
  for (double v : values) forward.record(v);

  std::vector<double> shuffled = values;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  Histogram backward({1, 2, 4, 8, 16, 32});
  for (double v : shuffled) backward.record(v);

  const auto a = forward.snapshot();
  const auto b = backward.snapshot();
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);  // exact equality — fixed point, not fp rounding
}

TEST(HistogramTest, ConcurrentShardsMergeDeterministically) {
  std::vector<double> values;
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  for (int i = 0; i < 8192; ++i) values.push_back(dist(rng));

  Histogram serial(Histogram::pow2_bounds(8));
  for (double v : values) serial.record(v);

  Histogram threaded(Histogram::pow2_bounds(8));
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < values.size(); i += kThreads) {
        threaded.record(values[i]);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto a = serial.snapshot();
  const auto b = threaded.snapshot();
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByNameAndLabels) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests_total", "help", {{"as", "1"}});
  Counter& b = reg.counter("requests_total", "other help", {{"as", "1"}});
  EXPECT_EQ(&a, &b);

  Counter& c = reg.counter("requests_total", "", {{"as", "2"}});
  EXPECT_NE(&a, &c);  // distinct label set -> distinct instrument
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::logic_error);
}

TEST(MetricsRegistryTest, SnapshotCarriesValuesAndKinds) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(-2);
  reg.sharded_counter("s", 4).add(1, 7);
  reg.histogram("h", {1.0, 2.0}).record(1.5);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 4u);
  for (const auto& m : snap.metrics) {
    if (m.name == "c") {
      EXPECT_EQ(m.kind, MetricKind::kCounter);
      EXPECT_DOUBLE_EQ(m.value, 5.0);
    } else if (m.name == "g") {
      EXPECT_EQ(m.kind, MetricKind::kGauge);
      EXPECT_DOUBLE_EQ(m.value, -2.0);
    } else if (m.name == "s") {
      EXPECT_EQ(m.kind, MetricKind::kCounter);
      EXPECT_DOUBLE_EQ(m.value, 7.0);
    } else if (m.name == "h") {
      EXPECT_EQ(m.kind, MetricKind::kHistogram);
      EXPECT_EQ(m.histogram.count, 1u);
      EXPECT_EQ(m.histogram.buckets[1], 1u);
    } else {
      ADD_FAILURE() << "unexpected metric " << m.name;
    }
  }
}

TEST(MetricsRegistryTest, CollectorsAppendAndRemoveCleanly) {
  MetricsRegistry reg;
  std::uint64_t backing = 3;
  const auto id = reg.add_collector([&](std::vector<Sample>& out) {
    out.push_back({"view_total", static_cast<double>(backing), {},
                   MetricKind::kCounter});
  });

  auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].name, "view_total");
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, 3.0);

  backing = 9;  // pull mode: the next scrape sees the new value
  EXPECT_DOUBLE_EQ(reg.snapshot().metrics[0].value, 9.0);

  reg.remove_collector(id);
  EXPECT_TRUE(reg.snapshot().metrics.empty());
  reg.remove_collector(id);  // double-remove is a no-op
}

// TSan leg: four writers hammering every instrument type while a fifth
// thread scrapes. No locks on the mutation paths — the contract is
// "relaxed atomics only", and this test exists to let TSan prove it.
TEST(MetricsRegistryTest, ConcurrentMutationAndScrape) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  ShardedCounter& s = reg.sharded_counter("s", 4);
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h", Histogram::pow2_bounds(10));

  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        s.add(static_cast<std::size_t>(t));
        g.set(i);
        h.record(static_cast<double>(i % 700));
      }
    });
  }
  std::thread scraper([&] {
    for (int i = 0; i < 50; ++i) (void)reg.snapshot();
  });
  for (auto& w : writers) w.join();
  scraper.join();

  EXPECT_EQ(c.value(), 4u * kPerThread);
  EXPECT_EQ(s.value(), 4u * kPerThread);
  EXPECT_EQ(h.count(), 4u * kPerThread);
}

}  // namespace
}  // namespace discs::telemetry
