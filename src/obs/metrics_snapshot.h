// Point-in-time capture of a MetricsRegistry plus interval diffing:
// counters are monotonic, so the difference of two snapshots divided by
// the interval is a rate (jobs/s, bytes/s) — the quantity operators
// actually watch on a long-lived service. A snapshot is plain data
// (maps of values), safe to hold, compare, and serialize after the
// registry has moved on.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace ems {

class JsonWriter;

/// Digest of one histogram (fixed-bucket or quantile) at capture time.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// \brief All instrument values of a registry at one instant.
struct MetricsSnapshot {
  /// Monotonic capture time in seconds (steady clock since process
  /// start); the denominator of DiffRates.
  double at_seconds = 0.0;

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
  std::map<std::string, HistogramStats> quantile_histograms;

  /// Emits this snapshot as one JSON object value: {"at_seconds": ..,
  /// "counters": {..}, "gauges": {..}, "histograms": {..},
  /// "quantile_histograms": {..}}. Integer-valued gauges render as
  /// integers.
  void WriteJson(JsonWriter* w) const;
};

/// Captures every instrument of `registry` now.
MetricsSnapshot CaptureMetricsSnapshot(const MetricsRegistry& registry);

/// Counter rates between two snapshots, in events per second, keyed by
/// counter name. Counters present only in `cur` count from zero. A
/// counter that moved backwards (the registry was reset between the
/// snapshots) rates as cur/interval — a restart, never a negative rate.
/// Empty when the interval is not positive.
std::map<std::string, double> DiffRates(const MetricsSnapshot& prev,
                                        const MetricsSnapshot& cur);

/// \brief The stats command's "snapshot", "interval_seconds" and "rates"
/// members: the registry now, plus the counter rates since the previous
/// call (none on the first call). Thread-safe.
class IntervalStats {
 public:
  void WriteJson(const MetricsRegistry& registry, JsonWriter* w);

 private:
  std::mutex mu_;
  MetricsSnapshot last_;
  bool has_last_ = false;
};

}  // namespace ems
