// Trace-variant analysis and per-log summary counters (ems_stats, and the
// variant translation of src/core/translation.h).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "log/event_log.h"

namespace ems {

/// One distinct trace shape and how often it occurs.
struct TraceVariant {
  std::vector<std::string> activities;
  size_t count = 0;
};

/// Distinct trace variants, most frequent first (ties broken by the
/// lexicographically smaller activity sequence, so the order is stable).
std::vector<TraceVariant> TraceVariants(const EventLog& log);

/// Per-log summary counters.
struct LogSummary {
  size_t num_traces = 0;
  size_t num_events = 0;       // distinct activities
  size_t total_occurrences = 0;
  size_t num_variants = 0;
  size_t min_trace_length = 0;
  size_t max_trace_length = 0;
  double mean_trace_length = 0.0;
};

LogSummary Summarize(const EventLog& log);

}  // namespace ems
