// Frequency statistics over an event log: the raw material of the
// dependency graph (Definition 1). Normalized frequencies are fractions of
// traces, matching the paper exactly:
//   f(v)      = fraction of traces in L that contain v
//   f(v1,v2)  = fraction of traces in which v1 v2 occur consecutively at
//               least once
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "log/event_log.h"

namespace ems {

/// \brief Per-log occurrence and direct-follows statistics.
class LogStats {
 public:
  /// Computes statistics over `log` in a single pass.
  explicit LogStats(const EventLog& log);

  /// Fraction of traces containing event `v` (f(v) in Definition 1).
  double EventFrequency(EventId v) const;

  /// Fraction of traces where `a` is immediately followed by `b` at least
  /// once (f(a,b) in Definition 1).
  double FollowsFrequency(EventId a, EventId b) const;

  /// Number of traces containing `v`.
  size_t EventTraceCount(EventId v) const;

  /// Number of traces where `a b` occur consecutively at least once.
  size_t FollowsTraceCount(EventId a, EventId b) const;

  /// Total occurrences of `v` across all traces (may exceed trace count).
  size_t EventOccurrences(EventId v) const;

  /// Total occurrences of the bigram `a b` across all traces.
  size_t FollowsOccurrences(EventId a, EventId b) const;

  /// All direct-follows pairs with a nonzero trace count.
  const std::map<std::pair<EventId, EventId>, size_t>& follows_trace_counts()
      const {
    return follows_trace_counts_;
  }

  size_t num_traces() const { return num_traces_; }
  size_t num_events() const { return event_trace_counts_.size(); }

 private:
  size_t num_traces_ = 0;
  std::vector<size_t> event_trace_counts_;
  std::vector<size_t> event_occurrences_;
  std::map<std::pair<EventId, EventId>, size_t> follows_trace_counts_;
  std::map<std::pair<EventId, EventId>, size_t> follows_occurrences_;
};

}  // namespace ems
