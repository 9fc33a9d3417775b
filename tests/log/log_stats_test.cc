#include "log/log_stats.h"

#include <gtest/gtest.h>

namespace ems {
namespace {

EventLog MakeLog() {
  EventLog log;
  // 4 traces: a b c / a b c / a c / b b
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "c"});
  log.AddTrace({"b", "b"});
  return log;
}

TEST(LogStatsTest, EventFrequencyIsFractionOfTraces) {
  EventLog log = MakeLog();
  LogStats stats(log);
  EventId a = log.FindEvent("a");
  EventId b = log.FindEvent("b");
  EventId c = log.FindEvent("c");
  EXPECT_DOUBLE_EQ(stats.EventFrequency(a), 0.75);
  EXPECT_DOUBLE_EQ(stats.EventFrequency(b), 0.75);
  EXPECT_DOUBLE_EQ(stats.EventFrequency(c), 0.75);
}

TEST(LogStatsTest, RepeatedEventCountsOncePerTrace) {
  EventLog log = MakeLog();
  LogStats stats(log);
  EventId b = log.FindEvent("b");
  // "b b" contributes one trace despite two occurrences.
  EXPECT_EQ(stats.EventTraceCount(b), 3u);
  EXPECT_EQ(stats.EventOccurrences(b), 4u);
}

TEST(LogStatsTest, FollowsFrequencyIsFractionOfTraces) {
  EventLog log = MakeLog();
  LogStats stats(log);
  EventId a = log.FindEvent("a");
  EventId b = log.FindEvent("b");
  EventId c = log.FindEvent("c");
  EXPECT_DOUBLE_EQ(stats.FollowsFrequency(a, b), 0.5);   // 2 of 4 traces
  EXPECT_DOUBLE_EQ(stats.FollowsFrequency(b, c), 0.5);
  EXPECT_DOUBLE_EQ(stats.FollowsFrequency(a, c), 0.25);  // only "a c"
  EXPECT_DOUBLE_EQ(stats.FollowsFrequency(c, a), 0.0);
}

TEST(LogStatsTest, SelfFollowsCounted) {
  EventLog log = MakeLog();
  LogStats stats(log);
  EventId b = log.FindEvent("b");
  EXPECT_EQ(stats.FollowsTraceCount(b, b), 1u);
  EXPECT_EQ(stats.FollowsOccurrences(b, b), 1u);
}

TEST(LogStatsTest, OccurrenceCounts) {
  EventLog log = MakeLog();
  LogStats stats(log);
  EventId a = log.FindEvent("a");
  EventId b = log.FindEvent("b");
  // a occurs 3 times, followed by b twice.
  EXPECT_EQ(stats.EventOccurrences(a), 3u);
  EXPECT_EQ(stats.FollowsOccurrences(a, b), 2u);
}

TEST(LogStatsTest, EmptyLog) {
  EventLog log;
  LogStats stats(log);
  EXPECT_EQ(stats.num_traces(), 0u);
  EXPECT_EQ(stats.num_events(), 0u);
}

TEST(LogStatsTest, BigramCountedOncePerTraceInFrequency) {
  EventLog log;
  log.AddTrace({"x", "y", "x", "y"});  // bigram xy occurs twice in 1 trace
  LogStats stats(log);
  EventId x = log.FindEvent("x");
  EventId y = log.FindEvent("y");
  EXPECT_DOUBLE_EQ(stats.FollowsFrequency(x, y), 1.0);
  EXPECT_EQ(stats.FollowsOccurrences(x, y), 2u);
}

}  // namespace
}  // namespace ems
