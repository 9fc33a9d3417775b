// Tests of the ledger's own helpers: the op_cost_tail rule, the CPU
// clock and the reference kernel, self time from overlapping child
// spans, the seeded request sampler, response normalization before
// digesting, and the metric-coverage check.
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "calibrate.h"
#include "ledger.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(TailRule, KeepsTenSamplesBeyondThePercentile) {
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(20, 50.0), 10u);
  EXPECT_EQ(TailPercentileFor(100), 90.0);
  EXPECT_EQ(TailPercentileFor(99), 75.0);  // p90 leaves 9
  EXPECT_EQ(TailPercentileFor(40), 75.0);
  EXPECT_EQ(TailPercentileFor(39), 50.0);
  EXPECT_EQ(TailPercentileFor(1000), 99.0);
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
  EXPECT_EQ(TailPercentileFor(5), 50.0);  // nothing qualifies
  for (size_t n : {20u, 40u, 57u, 100u, 300u, 1000u, 12345u}) {
    EXPECT_GE(SamplesBeyond(n, TailPercentileFor(n)), 10u) << n;
  }
}

TEST(TailRule, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 90.0), 90.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(TailRule, MedianBeyondThePercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(MedianBeyond(v, 90.0), 95.0);  // median of 91..100
  EXPECT_EQ(MedianBeyond(v, 100.0), 100.0);  // none beyond: the max
  EXPECT_EQ(MedianBeyond({}, 90.0), 0.0);
  // 88 cheap ops and 12 costly ones: p90 sits on the edge and moves
  // with one op's kind, the median beyond it does not.
  std::vector<double> mix(88, 10.0);
  mix.insert(mix.end(), 12, 40.0);
  std::vector<double> shifted(90, 10.0);
  shifted.insert(shifted.end(), 10, 40.0);
  EXPECT_EQ(Percentile(mix, 90.0) / Percentile(shifted, 90.0), 4.0);
  EXPECT_EQ(MedianBeyond(mix, 90.0), MedianBeyond(shifted, 90.0));
  // Two disturbed ops among the ten beyond leave it where it was.
  shifted[98] = shifted[99] = 400.0;
  EXPECT_EQ(MedianBeyond(shifted, 90.0), 40.0);
}

TEST(TailRule, MeanOfPerGroupMedians) {
  // A pooled median would be 10 (the middle group's); one outlier in a
  // group moves nothing.
  EXPECT_DOUBLE_EQ(MeanOfMedians({{1.0, 1.0, 9.0}, {10.0, 10.0, 10.0},
                                  {100.0, 100.0, 100.0}, {}}),
                   37.0);
  EXPECT_EQ(MeanOfMedians({{}, {}}), 0.0);
}

TEST(CpuTimer, CountsWorkButNotSleep) {
  CpuTimer idle;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(idle.ElapsedMillis(), 50.0);
  CpuTimer busy;
  volatile uint64_t sink = 0;
  while (busy.ElapsedMillis() < 5.0) sink = sink + 1;
  EXPECT_GE(busy.ElapsedMillis(), 5.0);
}

TEST(ReferenceClock, SameChecksumAndItsShareOfTheTime) {
  EXPECT_EQ(ReferenceKernel(), ReferenceKernel());
  ReferenceClock reference(/*share=*/0.5);
  EXPECT_EQ(reference.CostAt(10.0, 0.0), 0.0);  // no run yet
  reference.Tick();
  EXPECT_EQ(reference.runs(), 1u);  // the first tick always runs
  reference.Tick();  // the kernel has had about all the time so far
  EXPECT_EQ(reference.runs(), 1u);
  // Once as much time again has passed, it is owed a run.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int>(2.0 * reference.KernelMs()) + 20));
  reference.Tick();
  EXPECT_EQ(reference.runs(), 2u);
  EXPECT_TRUE(reference.consistent());
  EXPECT_GT(reference.KernelMs(), 0.0);
}

TEST(ReferenceClock, SetsAnOpAgainstTheNearestKernelRuns) {
  ReferenceClock reference(/*share=*/1.0);  // a run on every tick
  std::vector<double> at_ms;
  for (int i = 0; i < 7; ++i) {
    reference.Tick();
    at_ms.push_back(reference.NowMs());
  }
  ASSERT_EQ(reference.runs(), 7u);
  // Near the start, the three first runs count.
  const double first = reference.KernelMsAt(0.0);
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(reference.CostAt(3.0 * first, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(reference.CostOf({at_ms.back(), 0.0}), 0.0);
  EXPECT_GT(reference.KernelMsAt(at_ms.back()), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  std::vector<Span> spans = {
      {"op", 0.0, 100.0, -1, 1},
      {"a", 10.0, 40.0, 0, 1},   // overlaps b by 10
      {"b", 30.0, 50.0, 0, 1},
      {"c", 90.0, 120.0, 0, 1},  // sticks out of the parent
      {"d", 12.0, 20.0, 1, 1},   // grandchild: not the op's child
  };
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans, 0), 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans, 1), 30.0 - 8.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans, 2), 20.0);
}

TEST(SelfTime, LedgerSumsPerOpAndSkipsDiscardedOps) {
  SpanLedger ledger;
  const int root = ledger.Add("op", 0.0, 10.0, -1, 7);
  ledger.Add("log.parse", 1.0, 3.0, root, 7);
  ledger.Add("log.parse", 4.0, 7.0, root, 7);
  const int other = ledger.Add("op", 0.0, 5.0, -1, 8);
  ledger.Add("log.parse", 0.0, 5.0, other, 8);
  ledger.Discard(8);
  const auto parse = ledger.SelfTimeByOp("log.parse");
  ASSERT_EQ(parse.size(), 1u);
  EXPECT_DOUBLE_EQ(parse.at(7), 5.0);
  EXPECT_DOUBLE_EQ(ledger.SelfTimeByOp("op").at(7), 5.0);
}

TEST(SelfTime, ScopesNestUnderTheInnermostOpenScope) {
  SpanLedger ledger;
  {
    SpanLedger::Scope op(&ledger, "op", 1);
    { SpanLedger::Scope child(&ledger, "child", 1); }
    SpanLedger::Scope second(&ledger, "second", 1);
  }
  const std::vector<Span> spans = ledger.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_LE(spans[0].start_ms, spans[1].start_ms);
  EXPECT_GE(spans[0].end_ms, spans[2].end_ms);
}

TEST(Sampler, SameSeedSameRequestStream) {
  JobSampler a(42, 96, 1.0, 0.1, 0.1);
  JobSampler b(42, 96, 1.0, 0.1, 0.1);
  JobSampler c(43, 96, 1.0, 0.1, 0.1);
  bool differs = false;
  for (int i = 0; i < 2000; ++i) {
    const JobDraw x = a.Next();
    const JobDraw y = b.Next();
    const JobDraw z = c.Next();
    ASSERT_EQ(x.kind, y.kind);
    ASSERT_EQ(x.pair, y.pair);
    differs |= x.kind != z.kind || x.pair != z.pair;
  }
  EXPECT_TRUE(differs);
  SeededRng r1(7), r2(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(r1.Exponential(3.0), r2.Exponential(3.0));
  }
}

TEST(Sampler, FollowsTheMixAndZipf) {
  JobSampler sampler(1, 96, 1.0, 0.1, 0.1);
  int kinds[3] = {0, 0, 0};
  std::vector<int> hits(96, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const JobDraw d = sampler.Next();
    ++kinds[static_cast<int>(d.kind)];
    if (d.kind != JobDraw::Kind::kAppend) {
      ASSERT_GE(d.pair, 0);
      ASSERT_LT(d.pair, 96);
      ++hits[static_cast<size_t>(d.pair)];
    }
  }
  EXPECT_NEAR(kinds[0] / double(n), 0.8, 0.01);
  EXPECT_NEAR(kinds[1] / double(n), 0.1, 0.01);
  EXPECT_NEAR(kinds[2] / double(n), 0.1, 0.01);
  // Zipf(1): rank 1 is drawn about twice as often as rank 2.
  EXPECT_NEAR(hits[0] / double(hits[1]), 2.0, 0.15);
  EXPECT_GT(hits[1], hits[20]);
}

TEST(Normalize, DropsPerRequestFieldsOnly) {
  const std::string a =
      R"({"id":"r1","status":"ok","millis":12.5,"correspondences":[{"left":["id"],"right":["millis"],"similarity":0.5}],"ems":{"millis":3}})";
  const std::string b =
      R"({"id":"r2","status":"ok","millis":99,"correspondences":[{"left":["id"],"right":["millis"],"similarity":0.5}],"ems":{"millis":3}})";
  const auto na = DropTopLevelKeys(a, {"id", "millis"});
  ASSERT_TRUE(na.ok());
  EXPECT_EQ(*na,
            R"({"status":"ok","correspondences":[{"left":["id"],"right":["millis"],"similarity":0.5}],"ems":{"millis":3}})");
  EXPECT_EQ(*NormalizedDigest(a), *NormalizedDigest(b));
  // A result difference survives normalization.
  std::string c = b;
  c.replace(c.find("0.5"), 3, "0.6");
  EXPECT_NE(*NormalizedDigest(a), *NormalizedDigest(c));
  // Strings holding braces and escaped quotes do not confuse the scan.
  EXPECT_EQ(*DropTopLevelKeys(R"({"x":"a}\"b","id":"q","y":[1,{"z":"]"}]})",
                              {"id"}),
            R"({"x":"a}\"b","y":[1,{"z":"]"}]})");
  EXPECT_FALSE(DropTopLevelKeys("[1,2]", {"id"}).ok());
  EXPECT_FALSE(DropTopLevelKeys(R"({"id":)", {"id"}).ok());
}

std::string ReadRepoFile(const std::string& relative) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/" + relative);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Coverage, EveryListedMetricWithItsUnit) {
  const std::vector<std::pair<std::string, std::string>> listed = {
      {"op_cost_p50", "x"}, {"setup_s", "s"}};
  MetricMap emitted = {{"op_cost_p50", {1.5, "x"}}, {"setup_s", {0.2, "s"}}};
  EXPECT_TRUE(CheckCoverage(listed, emitted).ok());
  emitted["setup_s"].unit = "ms";
  EXPECT_FALSE(CheckCoverage(listed, emitted).ok());
  emitted.erase("setup_s");
  EXPECT_FALSE(CheckCoverage(listed, emitted).ok());
  emitted["setup_s"] = {0.2, "s"};
  emitted["extra"] = {1.0, "count"};
  EXPECT_FALSE(CheckCoverage(listed, emitted).ok());
}

TEST(Coverage, PerLayerListMatchesWhatEveryWorkloadEmits) {
  // Every workload starts its traced result from ZeroLayerMetrics and
  // overwrites what it measures, so this set is what each emits.
  const auto listed =
      ListedMetrics(ReadRepoFile("../BENCHMARK.json"), "per_layer");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  const ems::Status status = CheckCoverage(*listed, ZeroLayerMetrics());
  EXPECT_TRUE(status.ok()) << status.ToString();
  // Every workload of BENCHMARK.json has a generator config.
  const auto config = LoadLedgerConfig(
      std::string(PERFBENCH_SOURCE_DIR) + "/ledger.json");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  for (const char* name :
       {"xes_pair", "wide_trace", "composite_pair", "serve_mixed"}) {
    EXPECT_EQ(config->workloads.count(name), 1u) << name;
  }
}

}  // namespace
}  // namespace perfbench
