#include "core/translation.h"

#include <gtest/gtest.h>

#include "paper_example.h"
#include "synth/dataset.h"

namespace ems {
namespace {

TEST(TranslationTableTest, SingletonAndCompositeMappings) {
  std::vector<Correspondence> found;
  found.push_back(Correspondence{{"a"}, {"x"}, 0.9});
  found.push_back(Correspondence{{"c", "d"}, {"cd"}, 0.8});
  std::map<std::string, std::string> table = TranslationTable(found);
  EXPECT_EQ(table.at("a"), "x");
  EXPECT_EQ(table.at("c"), "cd");
  EXPECT_EQ(table.at("d"), "cd");
  EXPECT_EQ(table.size(), 3u);
}

TEST(TranslateLogTest, RenamesAndCollapsesComposites) {
  EventLog log;
  log.AddTrace({"a", "c", "d", "b"});
  std::map<std::string, std::string> table = {
      {"a", "x"}, {"c", "cd"}, {"d", "cd"}};
  EventLog out = TranslateLog(log, table);
  ASSERT_EQ(out.NumTraces(), 1u);
  ASSERT_EQ(out.trace(0).size(), 3u);
  EXPECT_EQ(out.EventName(out.trace(0)[0]), "x");
  EXPECT_EQ(out.EventName(out.trace(0)[1]), "cd");
  EXPECT_EQ(out.EventName(out.trace(0)[2]), "b");  // unmatched name kept
}

TEST(TranslateLogTest, OneToOneMappingsDoNotCollapse) {
  EventLog log;
  log.AddTrace({"a", "a"});
  std::map<std::string, std::string> table = {{"a", "x"}};
  EventLog out = TranslateLog(log, table);
  EXPECT_EQ(out.trace(0).size(), 2u);  // repeated 1:1 events stay repeated
}

TEST(CrossLogConformanceTest, IdenticalLogsArePerfect) {
  EventLog log = testing::BuildPaperLog1();
  ConformanceReport r = CrossLogConformance(log, log);
  EXPECT_DOUBLE_EQ(r.vocabulary_overlap, 1.0);
  EXPECT_DOUBLE_EQ(r.relation_overlap, 1.0);
  EXPECT_DOUBLE_EQ(r.trace_coverage_1in2, 1.0);
  EXPECT_DOUBLE_EQ(r.trace_coverage_2in1, 1.0);
  EXPECT_DOUBLE_EQ(r.f_conformance, 1.0);
}

TEST(CrossLogConformanceTest, DisjointVocabulariesScoreZeroOverlap) {
  EventLog a, b;
  a.AddTrace({"x", "y"});
  b.AddTrace({"p", "q"});
  ConformanceReport r = CrossLogConformance(a, b);
  EXPECT_DOUBLE_EQ(r.vocabulary_overlap, 0.0);
  EXPECT_DOUBLE_EQ(r.relation_overlap, 0.0);
  EXPECT_DOUBLE_EQ(r.trace_coverage_1in2, 0.0);
}

TEST(CrossLogConformanceTest, PartialOverlap) {
  EventLog a, b;
  a.AddTrace({"x", "y", "z"});
  b.AddTrace({"x", "y", "w"});
  ConformanceReport r = CrossLogConformance(a, b);
  EXPECT_GT(r.vocabulary_overlap, 0.0);
  EXPECT_LT(r.vocabulary_overlap, 1.0);
  EXPECT_GT(r.trace_coverage_1in2, 0.5);
  EXPECT_LT(r.trace_coverage_1in2, 1.0);
}

TEST(MatchAndCompareTest, MatchingLiftsConformance) {
  // Opaque renaming destroys raw conformance; matching restores it.
  PairOptions opts;
  opts.num_activities = 12;
  opts.num_traces = 80;
  opts.dislocation = 0;
  opts.dropped_events = 0;
  opts.swap_noise = 0.0;
  opts.frequency_drift = 0.1;
  opts.seed = 99;
  LogPair pair = MakeLogPair(Testbed::kDsFB, opts);

  ConformanceReport raw = CrossLogConformance(pair.log1, pair.log2);
  EXPECT_LT(raw.vocabulary_overlap, 0.05);  // names are garbled

  MatchOptions match_opts;
  match_opts.ems.alpha = 0.5;
  match_opts.label_measure = LabelMeasure::kQGramCosine;
  Matcher matcher(match_opts);
  Result<MatchResult> match = matcher.Match(pair.log1, pair.log2);
  ASSERT_TRUE(match.ok());
  EventLog translated =
      TranslateLog(pair.log1, TranslationTable(match->correspondences));
  ConformanceReport matched = CrossLogConformance(translated, pair.log2);
  EXPECT_GT(matched.vocabulary_overlap, raw.vocabulary_overlap);
  EXPECT_GT(matched.trace_coverage_1in2, 0.5);
}

}  // namespace
}  // namespace ems
