#include "log/log_filter.h"

#include <algorithm>
#include <map>

namespace ems {

std::vector<TraceVariant> TraceVariants(const EventLog& log) {
  std::map<std::vector<std::string>, size_t> counts;
  for (const Trace& t : log.traces()) {
    std::vector<std::string> names;
    names.reserve(t.size());
    for (EventId e : t) names.push_back(log.EventName(e));
    ++counts[names];
  }
  std::vector<TraceVariant> variants;
  variants.reserve(counts.size());
  for (auto& [activities, count] : counts) {
    variants.push_back(TraceVariant{activities, count});
  }
  std::sort(variants.begin(), variants.end(),
            [](const TraceVariant& a, const TraceVariant& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.activities < b.activities;
            });
  return variants;
}

LogSummary Summarize(const EventLog& log) {
  LogSummary s;
  s.num_traces = log.NumTraces();
  s.num_events = log.NumEvents();
  s.total_occurrences = log.TotalOccurrences();
  s.num_variants = TraceVariants(log).size();
  if (!log.traces().empty()) {
    s.min_trace_length = log.trace(0).size();
    for (const Trace& t : log.traces()) {
      s.min_trace_length = std::min(s.min_trace_length, t.size());
      s.max_trace_length = std::max(s.max_trace_length, t.size());
    }
    s.mean_trace_length = static_cast<double>(s.total_occurrences) /
                          static_cast<double>(s.num_traces);
  }
  return s;
}

}  // namespace ems
