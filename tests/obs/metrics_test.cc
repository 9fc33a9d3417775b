#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json_writer.h"

namespace ems {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(HistogramTest, BucketsObservationsByUpperBound) {
  Histogram h({1.0, 5.0, 10.0});
  h.Observe(0.5);   // <= 1       -> bucket 0
  h.Observe(1.0);   // <= 1       -> bucket 0 (inclusive upper bound)
  h.Observe(3.0);   // <= 5       -> bucket 1
  h.Observe(10.0);  // <= 10      -> bucket 2
  h.Observe(99.0);  // overflow   -> bucket 3
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 3.0 + 10.0 + 99.0);
}

TEST(MetricsRegistryTest, GetReturnsStablePointerPerName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ems.iterations");
  Counter* b = registry.GetCounter("ems.iterations");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(registry.CounterValue("ems.iterations"), 7u);
  EXPECT_EQ(registry.CounterValue("never.created"), 0u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* c = registry.GetCounter("shared");
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue("shared"),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, JsonExportIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Increment(2);
  registry.GetCounter("alpha")->Increment(1);
  registry.GetGauge("load")->Set(0.5);
  Histogram* h = registry.GetHistogram("lat", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(100.0);
  std::string json = registry.ToJson();
  // Sorted keys -> deterministic output.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":1"), std::string::npos);
  EXPECT_NE(json.find("\"zeta\":2"), std::string::npos);
  // Histogram exports counts, sum, bounds, and buckets.
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedOnFirstUse) {
  MetricsRegistry registry;
  Histogram* h1 = registry.GetHistogram("h", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("h", {99.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds().size(), 2u);
}

}  // namespace
}  // namespace ems
