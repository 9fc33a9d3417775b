// The match options schema: every row is spelled, parsed and validated
// the same way from wire JSON and from CLI text, and the fingerprint
// covers every row.
#include "serve/match_options_schema.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "util/json_parser.h"

namespace ems {
namespace serve {
namespace {

// A valid value of `spec` other than its default.
double OtherValue(const MatchOptionSpec& spec) {
  switch (spec.type) {
    case OptionType::kChoice: {
      const double choices = 1.0 + static_cast<double>(std::count(
                                       spec.choices.begin(),
                                       spec.choices.end(), '|'));
      return std::fmod(spec.fallback + 1.0, choices);
    }
    case OptionType::kFlag:
      return 1.0 - spec.fallback;
    case OptionType::kInteger:
      return spec.fallback + 1.0;
    case OptionType::kNumber:
      return std::isfinite(spec.max) ? (spec.fallback + spec.max) / 2.0
                                     : spec.fallback * 2.0 + 1.0;
    case OptionType::kText:
      break;
  }
  return spec.fallback;
}

TEST(MatchOptionsSchemaTest, PerturbingAnyRowChangesTheFingerprint) {
  const MatchOptions defaults = DefaultMatchOptions();
  const uint64_t base = MatchOptionsFingerprint(defaults);
  for (const MatchOptionSpec& spec : MatchOptionSchema()) {
    MatchOptions changed = defaults;
    spec.set(&changed, OtherValue(spec), "");
    EXPECT_NE(spec.get(changed), spec.get(defaults)) << spec.key;
    EXPECT_NE(MatchOptionsFingerprint(changed), base) << spec.key;
  }
  // Fields outside the schema (execution, not configuration) do not.
  MatchOptions threaded = defaults;
  threaded.ems.num_threads = 8;
  EXPECT_EQ(MatchOptionsFingerprint(threaded), base);
}

TEST(MatchOptionsSchemaTest, DefaultsAreTheDocumentedOnes) {
  Result<MatchOptions> parsed = MatchOptionsParser().Finish();
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->label_measure, LabelMeasure::kQGramCosine);
  EXPECT_DOUBLE_EQ(parsed->ems.alpha, 0.5);
  EXPECT_DOUBLE_EQ(parsed->ems.c, 0.8);
  EXPECT_EQ(parsed->engine, SimilarityEngine::kExact);
  EXPECT_EQ(parsed->estimation_iterations, 5);
  EXPECT_FALSE(parsed->match_composites);
  EXPECT_DOUBLE_EQ(parsed->composite.delta, 0.005);
  EXPECT_EQ(parsed->selection, SelectionStrategy::kMaxTotalSimilarity);
  EXPECT_DOUBLE_EQ(parsed->min_match_similarity, 0.05);
  EXPECT_DOUBLE_EQ(parsed->min_edge_frequency, 0.0);
  EXPECT_FALSE(parsed->prob.enabled);
  EXPECT_EQ(parsed->prob.max_iterations, 50);
}

// The same value through either surface yields the same options.
TEST(MatchOptionsSchemaTest, WireAndCliAgree) {
  const struct {
    const char* key;
    const char* json;
    const char* text;
  } cases[] = {{"labels", "\"jaro\"", "jaro"},
               {"alpha", "0.25", "0.25"},
               {"c", "0.6", "0.6"},
               {"engine", "\"estimated\"", "estimated"},
               {"iterations", "3", "3"},
               {"composites", "true", ""},
               {"selection", "\"mutual\"", "mutual"},
               {"prob_tol", "1e-4", "1e-4"}};
  for (const auto& c : cases) {
    const MatchOptionSpec* spec = FindMatchOption(c.key);
    ASSERT_NE(spec, nullptr) << c.key;
    Result<JsonValue> json = ParseJson(c.json);
    ASSERT_TRUE(json.ok());
    MatchOptionsParser wire;
    MatchOptionsParser cli;
    ASSERT_TRUE(wire.SetJson(*spec, *json).ok()) << c.key;
    ASSERT_TRUE(cli.SetText(*spec, c.text).ok()) << c.key;
    EXPECT_EQ(MatchOptionsFingerprint(*wire.Finish()),
              MatchOptionsFingerprint(*cli.Finish()))
        << c.key;
    EXPECT_NE(MatchOptionsFingerprint(*wire.Finish()),
              MatchOptionsFingerprint(DefaultMatchOptions()))
        << c.key;
  }
}

// CLI text is consumed in full and range-checked (the wire cases are in
// ParseJobRequestTest.RejectsBadRequests).
TEST(MatchOptionsSchemaTest, RejectsMalformedAndOutOfRangeText) {
  const struct {
    const char* key;
    const char* text;
  } bad_text[] = {{"alpha", "abc"},        {"c", "0.8x"},
                  {"c", "1"},              {"alpha", ""},
                  {"alpha", "nan"},        {"iterations", "2.5"},
                  {"iterations", "0"},     {"prob_temp", "0"},
                  {"labels", "soundex"},   {"min_edge_frequency", "5"},
                  {"composites", "yes"},   {"prob_iters", "99999999999"}};
  for (const auto& c : bad_text) {
    MatchOptionsParser parser;
    EXPECT_FALSE(parser.SetText(*FindMatchOption(c.key), c.text).ok())
        << c.key << "=" << c.text;
  }
}

TEST(MatchOptionsSchemaTest, LabelsNoneForcesAlphaOne) {
  MatchOptionsParser implicit;
  ASSERT_TRUE(implicit.SetText(*FindMatchOption("labels"), "none").ok());
  EXPECT_DOUBLE_EQ(implicit.Finish()->ems.alpha, 1.0);

  MatchOptionsParser explicit_one = implicit;
  ASSERT_TRUE(explicit_one.SetText(*FindMatchOption("alpha"), "1").ok());
  EXPECT_TRUE(explicit_one.Finish().ok());

  MatchOptionsParser conflicting = implicit;
  ASSERT_TRUE(conflicting.SetText(*FindMatchOption("alpha"), "0.3").ok());
  EXPECT_FALSE(conflicting.Finish().ok());
}

TEST(MatchOptionsSchemaTest, UsageListsEveryRowAsAFlag) {
  const std::string usage = MatchOptionsUsage();
  for (const MatchOptionSpec& spec : MatchOptionSchema()) {
    std::string flag = "--" + std::string(spec.key);
    std::replace(flag.begin(), flag.end(), '_', '-');
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(FindMatchOption("alhpa"), nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace ems
