// Applying a matching: translate one log into the other's vocabulary and
// quantify how well the two processes agree once events are unified —
// the downstream analyses the paper motivates (comparing processes across
// subsidiaries, finding common parts, building warehouse views).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "log/event_log.h"

namespace ems {

/// Translation table derived from correspondences: each left-side event
/// maps to the display name of its correspondence's right side (composite
/// members all map to the joined composite name). Unmatched events keep
/// their own names.
std::map<std::string, std::string> TranslationTable(
    const std::vector<Correspondence>& correspondences);

/// Rewrites `log` through the table: every event occurrence is renamed to
/// its mapped name; consecutive occurrences that map to the same
/// composite name collapse into one (so an m:1 correspondence yields the
/// same granularity on both sides).
EventLog TranslateLog(const EventLog& log,
                      const std::map<std::string, std::string>& table);

/// Cross-log agreement of two logs over a shared vocabulary.
struct ConformanceReport {
  /// Jaccard overlap of the vocabularies.
  double vocabulary_overlap = 0.0;

  /// Jaccard overlap of the direct-follows relations (edges present in
  /// either log's dependency graph).
  double relation_overlap = 0.0;

  /// Mean, over log-1 trace variants weighted by frequency, of the best
  /// normalized edit similarity to any log-2 variant. 1 = every behavior
  /// of log 1 also occurs in log 2.
  double trace_coverage_1in2 = 0.0;

  /// Symmetric counterpart.
  double trace_coverage_2in1 = 0.0;

  /// Harmonic mean of the two coverages.
  double f_conformance = 0.0;
};

/// Computes the report. Meaningful when both logs use the same
/// vocabulary — typically log 1 and TranslateLog(log 2) after matching.
ConformanceReport CrossLogConformance(const EventLog& log1,
                                      const EventLog& log2);

}  // namespace ems
