#include "log/log_filter.h"

#include <gtest/gtest.h>

namespace ems {
namespace {

EventLog MakeLog() {
  EventLog log;
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "c"});
  log.AddTrace({"a", "b", "c", "d", "e"});
  return log;
}

TEST(TraceVariantsTest, CountsAndOrder) {
  std::vector<TraceVariant> variants = TraceVariants(MakeLog());
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_EQ(variants[0].count, 2u);  // "a b c" twice
  EXPECT_EQ(variants[0].activities,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(variants[1].count, 1u);
  EXPECT_EQ(variants[2].count, 1u);
}

TEST(TraceVariantsTest, DeterministicTieBreak) {
  EventLog log;
  log.AddTrace({"b"});
  log.AddTrace({"a"});
  std::vector<TraceVariant> variants = TraceVariants(log);
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_EQ(variants[0].activities, (std::vector<std::string>{"a"}));
}

TEST(SummarizeTest, Counters) {
  LogSummary s = Summarize(MakeLog());
  EXPECT_EQ(s.num_traces, 4u);
  EXPECT_EQ(s.num_events, 5u);
  EXPECT_EQ(s.total_occurrences, 13u);
  EXPECT_EQ(s.num_variants, 3u);
  EXPECT_EQ(s.min_trace_length, 2u);
  EXPECT_EQ(s.max_trace_length, 5u);
  EXPECT_DOUBLE_EQ(s.mean_trace_length, 13.0 / 4.0);
}

TEST(SummarizeTest, EmptyLog) {
  EventLog log;
  LogSummary s = Summarize(log);
  EXPECT_EQ(s.num_traces, 0u);
  EXPECT_EQ(s.num_variants, 0u);
  EXPECT_DOUBLE_EQ(s.mean_trace_length, 0.0);
}

}  // namespace
}  // namespace ems
