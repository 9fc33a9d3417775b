#include "eval/metrics.h"

#include <gtest/gtest.h>

namespace ems {
namespace {

using Links = std::set<std::pair<std::string, std::string>>;

TEST(EvaluateLinksTest, PerfectMatch) {
  Links truth = {{"a", "x"}, {"b", "y"}};
  MatchQuality q = EvaluateLinks(truth, truth);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.f_measure, 1.0);
  EXPECT_EQ(q.correct_links, 2u);
}

TEST(EvaluateLinksTest, PartialOverlap) {
  Links truth = {{"a", "x"}, {"b", "y"}, {"c", "z"}};
  Links found = {{"a", "x"}, {"b", "WRONG"}};
  MatchQuality q = EvaluateLinks(truth, found);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_NEAR(q.recall, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(q.f_measure, 2 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0 / 3.0), 1e-12);
}

TEST(EvaluateLinksTest, EmptyFound) {
  Links truth = {{"a", "x"}};
  MatchQuality q = EvaluateLinks(truth, {});
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_DOUBLE_EQ(q.f_measure, 0.0);
}

TEST(EvaluateLinksTest, EmptyTruthNonEmptyFound) {
  Links found = {{"a", "x"}};
  MatchQuality q = EvaluateLinks({}, found);
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
}

TEST(EvaluateLinksTest, BothEmptyIsPerfect) {
  MatchQuality q = EvaluateLinks({}, {});
  EXPECT_DOUBLE_EQ(q.f_measure, 1.0);
}

TEST(GroundTruthTest, ComplexEntriesFlattenToLinks) {
  GroundTruth truth;
  truth.AddComplex({"c", "d"}, {"cd"});
  truth.Add("a", "x");
  Links links = truth.Links();
  EXPECT_EQ(links, (Links{{"c", "cd"}, {"d", "cd"}, {"a", "x"}}));
}

TEST(GroundTruthTest, RenameRight) {
  GroundTruth truth;
  truth.Add("a", "x");
  truth.Add("b", "y");
  truth.RenameRight({{"x", "opaque_x"}});
  Links links = truth.Links();
  EXPECT_TRUE(links.count({"a", "opaque_x"}));
  EXPECT_TRUE(links.count({"b", "y"}));  // unmapped name kept
}

TEST(GroundTruthTest, RestrictToVocabularies) {
  GroundTruth truth;
  truth.Add("a", "x");
  truth.Add("gone", "y");
  truth.AddComplex({"c", "d"}, {"cd"});
  truth.RestrictToVocabularies({"a", "c"}, {"x", "cd", "y"});
  // "gone" entry dropped entirely; complex entry shrinks to {c}.
  Links links = truth.Links();
  EXPECT_EQ(links, (Links{{"a", "x"}, {"c", "cd"}}));
}

TEST(GroundTruthTest, RestrictDropsEmptySides) {
  GroundTruth truth;
  truth.Add("a", "x");
  truth.RestrictToVocabularies({"a"}, {});
  EXPECT_EQ(truth.size(), 0u);
}

TEST(CorrespondenceLinksTest, FlattensMtoN) {
  std::vector<Correspondence> found;
  Correspondence c;
  c.events1 = {"c", "d"};
  c.events2 = {"u", "v"};
  found.push_back(c);
  Links links = CorrespondenceLinks(found);
  EXPECT_EQ(links.size(), 4u);
  EXPECT_TRUE(links.count({"c", "v"}));
}

TEST(QualityAccumulatorTest, MacroAverage) {
  QualityAccumulator acc;
  MatchQuality q1;
  q1.precision = 1.0;
  q1.recall = 0.5;
  q1.f_measure = 2.0 / 3.0;
  MatchQuality q2;
  q2.precision = 0.0;
  q2.recall = 0.5;
  q2.f_measure = 0.0;
  acc.Add(q1);
  acc.Add(q2);
  MatchQuality mean = acc.Mean();
  EXPECT_DOUBLE_EQ(mean.precision, 0.5);
  EXPECT_DOUBLE_EQ(mean.recall, 0.5);
  EXPECT_NEAR(mean.f_measure, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(acc.count(), 2u);
}

TEST(QualityAccumulatorTest, EmptyMeanIsZero) {
  QualityAccumulator acc;
  MatchQuality mean = acc.Mean();
  EXPECT_DOUBLE_EQ(mean.f_measure, 0.0);
}

}  // namespace
}  // namespace ems
