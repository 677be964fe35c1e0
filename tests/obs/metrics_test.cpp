// Unit tests for booterscope::obs metrics: counter/gauge/histogram
// semantics, label canonicalization, percentile math, exposition output,
// and a multithreaded counter hammer. Local registries are used throughout
// so the global one the library instruments stays untouched. Under
// BOOTERSCOPE_NO_METRICS the instruments are inert, so every value check
// asserts the zero they read instead (see live() below).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

namespace booterscope::obs {
namespace {

/// What an instrument reads after a test's updates: `updated` when metrics
/// are compiled in, the inert zero when they are compiled out.
template <typename T>
constexpr T live(T updated) {
#ifndef BOOTERSCOPE_NO_METRICS
  return updated;
#else
  (void)updated;
  return T{};
#endif
}

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), live(42u));
}

TEST(Counter, MultithreadedHammer) {
  Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), live(kThreads * kPerThread));
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(10.5);
  EXPECT_DOUBLE_EQ(g.value(), live(10.5));
  g.add(-3.5);
  EXPECT_DOUBLE_EQ(g.value(), live(7.0));
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), live(1.0));
}

TEST(Histogram, BucketAssignment) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);  // <= 1
  h.observe(1.0);  // boundary lands in the le=1 bucket
  h.observe(1.5);  // <= 2
  h.observe(5.0);  // <= 5
  h.observe(7.0);  // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], live(2u));
  EXPECT_EQ(counts[1], live(1u));
  EXPECT_EQ(counts[2], live(1u));
  EXPECT_EQ(counts[3], live(1u));
  EXPECT_EQ(h.count(), live(5u));
  EXPECT_DOUBLE_EQ(h.sum(), live(15.0));
}

TEST(Histogram, BoundsSortedAndDeduped) {
  const Histogram h({5.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 5.0}));
}

TEST(Histogram, PercentileOnUniformDistribution) {
  // 100 observations spread evenly over (0, 100] in decile buckets: the
  // interpolated p-quantile of the bucketed data is exactly 100p.
  Histogram h(Histogram::linear_bounds(10.0, 10.0, 10));
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i) - 0.5);
  EXPECT_NEAR(h.percentile(0.50), live(50.0), 1e-9);
  EXPECT_NEAR(h.percentile(0.95), live(95.0), 1e-9);
  EXPECT_NEAR(h.percentile(0.10), live(10.0), 1e-9);
  EXPECT_NEAR(h.percentile(1.0), live(100.0), 1e-9);
  EXPECT_NEAR(h.percentile(0.0), 0.0, 1e-9);
  // Out-of-range p is clamped.
  EXPECT_NEAR(h.percentile(2.0), live(100.0), 1e-9);
}

TEST(Histogram, PercentileOverflowReportsLastBound) {
  Histogram h({10.0, 20.0});
  h.observe(1000.0);
  h.observe(1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), live(20.0));
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  const Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, BoundFactories) {
  EXPECT_EQ(Histogram::linear_bounds(10.0, 10.0, 3),
            (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_EQ(Histogram::exponential_bounds(1.0, 10.0, 4),
            (std::vector<double>{1.0, 10.0, 100.0, 1000.0}));
}

TEST(Registry, SameNameReturnsSameSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests_total");
  Counter& b = registry.counter("requests_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), live(3u));
}

TEST(Registry, LabelsCreateDistinctSeries) {
  MetricsRegistry registry;
  Counter& ixp = registry.counter("flows_total", {{"vantage", "ixp"}});
  Counter& tier1 = registry.counter("flows_total", {{"vantage", "tier1"}});
  Counter& bare = registry.counter("flows_total");
  EXPECT_NE(&ixp, &tier1);
  EXPECT_NE(&ixp, &bare);
  ixp.add(5);
  tier1.add(7);
  bare.add(1);
  EXPECT_EQ(registry.counter_total("flows_total"), live(13u));
  EXPECT_EQ(registry.counter_total("absent_total"), 0u);
}

TEST(Registry, LabelOrderIsCanonicalized) {
  MetricsRegistry registry;
  Counter& ab = registry.counter("t", {{"a", "1"}, {"b", "2"}});
  Counter& ba = registry.counter("t", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
}

TEST(Registry, HistogramReregistrationKeepsBounds) {
  MetricsRegistry registry;
  Histogram& first = registry.histogram("h", {1.0, 2.0});
  Histogram& again = registry.histogram("h", {50.0});
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Registry, SeriesViewExposesNamesAndLabels) {
  MetricsRegistry registry;
  registry.counter("a_total").add(1);
  registry.counter("b_total", {{"proto", "ntp"}}).add(2);
  registry.gauge("depth").set(4.0);
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "a_total");
  EXPECT_TRUE(counters[0].labels.empty());
  EXPECT_EQ(counters[1].name, "b_total");
  ASSERT_EQ(counters[1].labels.size(), 1u);
  EXPECT_EQ(counters[1].labels[0].key, "proto");
  EXPECT_EQ(counters[1].labels[0].value, "ntp");
  EXPECT_EQ(counters[1].metric->value(), live(2u));
  ASSERT_EQ(registry.gauges().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.gauges()[0].metric->value(), live(4.0));
}

TEST(Exposition, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.counter("pkts_total", {{"vantage", "ixp"}}).add(3);
  registry.gauge("cache_entries").set(12.0);
  registry.histogram("latency", {1.0, 2.0}).observe(1.5);
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("# TYPE pkts_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cache_entries gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency histogram"), std::string::npos);
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_NE(text.find("pkts_total{vantage=\"ixp\"} 3"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("latency_count 1"), std::string::npos);
  EXPECT_NE(text.find("latency_sum 1.5"), std::string::npos);
#else
  EXPECT_NE(text.find("pkts_total{vantage=\"ixp\"} 0"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"+Inf\"} 0"), std::string::npos);
  EXPECT_NE(text.find("latency_count 0"), std::string::npos);
  EXPECT_NE(text.find("latency_sum 0"), std::string::npos);
#endif
}

TEST(Exposition, MetricsJsonHasAllSections) {
  MetricsRegistry registry;
  registry.counter("c_total").add(1);
  const std::string json = metrics_json(registry);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
}

}  // namespace
}  // namespace booterscope::obs
