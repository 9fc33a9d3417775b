// Workload configuration (perfbench/ledger.json) and input generation:
// every workload's log pairs come from src/synth with a pinned corpus
// seed, are written under the run's data directory, and are digested
// (XXH64) so a run whose regenerated inputs differ from the pinned
// digest fails loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/ground_truth.h"
#include "util/status.h"

namespace perfbench {

/// One workload's entry in ledger.json.
struct WorkloadConfig {
  std::string name;
  std::string format;  // "xes" or "trace"
  int pairs = 0;
  int min_activities = 0;
  int max_activities = 0;
  int traces = 0;
  int composites = 0;
  uint64_t corpus_seed = 0;
  std::string input_xxh64;  // pinned digest of the generated inputs
  double tail_percentile = 50.0;

  // serve_mixed only.
  int live_pairs = 0;
  int append_traces = 0;
  int append_batches = 0;
  double rate_per_s = 0.0;
  double zipf_s = 1.0;
  double prob_share = 0.0;
  double append_share = 0.0;
};

struct LedgerConfig {
  /// Largest tolerated open-loop generator lateness; beyond it a run is
  /// invalid.
  double lag_limit_ms = 0.0;
  std::map<std::string, WorkloadConfig> workloads;
};

ems::Result<LedgerConfig> LoadLedgerConfig(const std::string& path);

/// One generated pair on disk plus its reference mapping.
struct PairFiles {
  std::string log1;
  std::string log2;
  ems::GroundTruth truth;
  uint64_t bytes = 0;  // size of both files
};

/// The traces of one append job: event names per trace.
using TraceBatch = std::vector<std::vector<std::string>>;

struct Inputs {
  std::vector<PairFiles> pairs;
  /// serve_mixed: pairs that receive append jobs only, and per live pair
  /// the batches its successive appends carry (cycled).
  std::vector<PairFiles> live;
  std::vector<std::vector<TraceBatch>> append_batches;
  /// XXH64 over every file's bytes, the truth links and the batches.
  uint64_t digest = 0;
};

/// Writes the workload's inputs under `dir` (created) and digests them.
ems::Result<Inputs> GenerateInputs(const WorkloadConfig& config,
                                   const std::string& dir);

/// Macro link-level F-measure of the correspondences in a rendered
/// result (a MatchResultToJson document or a service response) against
/// `truth` — the same per-pair number ems_eval reports.
ems::Result<double> FMeasureOfRendered(const std::string& rendered,
                                       const ems::GroundTruth& truth);

}  // namespace perfbench
