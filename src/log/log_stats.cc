#include "log/log_stats.h"

#include <set>

namespace ems {

LogStats::LogStats(const EventLog& log)
    : num_traces_(log.NumTraces()),
      event_trace_counts_(log.NumEvents(), 0),
      event_occurrences_(log.NumEvents(), 0) {
  std::set<EventId> seen_events;
  std::set<std::pair<EventId, EventId>> seen_pairs;
  for (const Trace& t : log.traces()) {
    seen_events.clear();
    seen_pairs.clear();
    for (size_t i = 0; i < t.size(); ++i) {
      ++event_occurrences_[static_cast<size_t>(t[i])];
      seen_events.insert(t[i]);
      if (i + 1 < t.size()) {
        auto key = std::make_pair(t[i], t[i + 1]);
        ++follows_occurrences_[key];
        seen_pairs.insert(key);
      }
    }
    for (EventId v : seen_events) ++event_trace_counts_[static_cast<size_t>(v)];
    for (const auto& p : seen_pairs) ++follows_trace_counts_[p];
  }
}

double LogStats::EventFrequency(EventId v) const {
  if (num_traces_ == 0) return 0.0;
  return static_cast<double>(EventTraceCount(v)) /
         static_cast<double>(num_traces_);
}

double LogStats::FollowsFrequency(EventId a, EventId b) const {
  if (num_traces_ == 0) return 0.0;
  return static_cast<double>(FollowsTraceCount(a, b)) /
         static_cast<double>(num_traces_);
}

size_t LogStats::EventTraceCount(EventId v) const {
  EMS_DCHECK(v >= 0 && static_cast<size_t>(v) < event_trace_counts_.size());
  return event_trace_counts_[static_cast<size_t>(v)];
}

size_t LogStats::FollowsTraceCount(EventId a, EventId b) const {
  auto it = follows_trace_counts_.find(std::make_pair(a, b));
  return it == follows_trace_counts_.end() ? 0 : it->second;
}

size_t LogStats::EventOccurrences(EventId v) const {
  EMS_DCHECK(v >= 0 && static_cast<size_t>(v) < event_occurrences_.size());
  return event_occurrences_[static_cast<size_t>(v)];
}

size_t LogStats::FollowsOccurrences(EventId a, EventId b) const {
  auto it = follows_occurrences_.find(std::make_pair(a, b));
  return it == follows_occurrences_.end() ? 0 : it->second;
}

}  // namespace ems
