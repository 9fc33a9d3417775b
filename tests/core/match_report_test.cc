#include "core/match_report.h"
#include <algorithm>
#include "util/json_writer.h"

#include <gtest/gtest.h>

#include "paper_example.h"

namespace ems {
namespace {

TEST(MatchReportTest, JsonContainsCorrespondences) {
  EventLog log1 = testing::BuildPaperLog1();
  EventLog log2 = testing::BuildPaperLog2();
  Matcher matcher;
  Result<MatchResult> result = matcher.Match(log1, log2);
  ASSERT_TRUE(result.ok());
  std::string json = MatchResultToJson(*result);
  EXPECT_NE(json.find("\"correspondences\":["), std::string::npos);
  EXPECT_NE(json.find("\"similarity\":"), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(json.find("\"left_events\":6"), std::string::npos);
  EXPECT_NE(json.find("\"right_events\":6"), std::string::npos);
  // Every correspondence's left name appears.
  for (const Correspondence& c : result->correspondences) {
    EXPECT_NE(json.find(JsonWriter::Escape(c.events1[0])),
              std::string::npos);
  }
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace ems
