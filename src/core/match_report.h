// Serialization of match results for downstream tooling: JSON documents
// with the correspondences, similarity statistics, and run counters.
#pragma once

#include <string>

#include "core/matcher.h"

namespace ems {

/// JSON document describing a match result:
/// {
///   "correspondences": [{"left": [...], "right": [...],
///                        "similarity": 0.81}, ...],
///   "stats": {"iterations": N, "formula_evaluations": N,
///             "composite_merges": N},
///   "graphs": {"left_events": N, "right_events": N}
/// }
std::string MatchResultToJson(const MatchResult& result);

}  // namespace ems
