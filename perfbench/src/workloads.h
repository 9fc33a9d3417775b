// The four workloads of BENCHMARK.json and what they share: the options
// of the op (the CLI's defaults), the run settings, the result, and the
// decomposed pipeline the traced run times layer by layer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "calibrate.h"
#include "core/matcher.h"
#include "inputs.h"
#include "ledger.h"
#include "store/artifact_store.h"
#include "util/status.h"

namespace ems {
struct ObsContext;
}  // namespace ems

namespace perfbench {

/// Settings of one run, from the command line.
struct RunSettings {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
  std::string data_dir;  // inputs and artifact stores of this workload
  std::string trace_out;  // traced run: where the span ledger is written
  double lag_limit_ms = 0.0;
};

/// What a run reports: the last line of the benchmark's output.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;
};

/// One set-up for setup_s: ticks `reference`, runs `set_up` and returns
/// its CPU time set against the kernel runs nearest to it, in seconds at
/// the calibration host's speed (kReferenceKernelSeconds).
template <typename SetUp>
ems::Result<double> TimeSetUp(ReferenceClock* reference, SetUp set_up) {
  reference->Tick();
  const double at_ms = reference->NowMs();
  CpuTimer cpu;
  EMS_RETURN_NOT_OK(set_up());
  return reference->CostAt(cpu.ElapsedMillis(), at_ms) *
         kReferenceKernelSeconds;
}

/// Whether a run sets up once more: setup_s is the median of at least 3
/// set-ups, repeated (up to 100) until they took 1 s in total, so small
/// set-ups get enough samples for a steady median.
inline bool KeepSettingUp(const std::vector<double>& setups, double total_s) {
  return setups.size() < 3 || (total_s < 1.0 && setups.size() < 100);
}

/// Warns on stderr when `n` samples leave fewer than 10 beyond the
/// fixed tail percentile `p` (the rule of TailPercentileFor picked `p`
/// from the op count at the seed commit; a slower host runs fewer ops).
void WarnIfThinTail(size_t n, double p);

/// Prints, as a "#" line for the reader, the raw times behind a run's
/// costs: the median op's CPU and wall ms (wall < 0 when not measured)
/// and the reference kernel's CPU ms.
void PrintRawTimes(double op_cpu_ms, double op_wall_ms,
                   const ReferenceClock& reference);

/// The op's options: ems_match's defaults (qgram labels, exact engine,
/// Hungarian selection) with `threads` as --threads means it (negative =
/// hardware concurrency, 0 = serial).
ems::MatchOptions OpOptions(bool composites, int threads);

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Every per-layer metric at 0: the value of a layer a workload does not
/// run. Workloads overwrite what they measure.
MetricMap ZeroLayerMetrics();

/// \brief The op split at each layer's public entry point, with a span
/// around each call: LoadEventLog (or the store's hash/read/decode) ->
/// DependencyGraph::Build x2 -> LabelSimilarityMatrix ->
/// EmsSimilarity::Compute (or CompositeMatcher::Match) ->
/// SelectCorrespondences -> MatchResultToJson. Renders byte-identically
/// to Matcher::Match with the same options.
struct DecomposedOp {
  std::string rendered;
  ems::EmsStats ems_stats;
  ems::CompositeStats composite_stats;
  uint64_t label_pairs = 0;
  uint64_t edges = 0;
  uint64_t cells = 0;
};
ems::Result<DecomposedOp> RunDecomposed(const PairFiles& pair,
                                        const std::string& format,
                                        const ems::MatchOptions& options,
                                        ems::store::ArtifactStore* store,
                                        SpanLedger* ledger,
                                        const std::string& root, uint64_t op);

/// Loads `path` through `store` as serve::LoadEventLogThroughStore does,
/// with spans around the source hash, the store read, the parse (miss)
/// and the snapshot encode and write (miss) or decode (hit).
ems::Result<ems::EventLog> LoadThroughStoreTraced(
    ems::store::ArtifactStore* store, const std::string& path,
    const std::string& format, SpanLedger* ledger, uint64_t op);

/// Primes `store` with the log at `path` as serve::LoadEventLogThroughStore
/// does on a miss (parse, snapshot write). With a ledger, the load is
/// traced as one "prime" op whose id is appended to `prime_ops`.
ems::Status PrimeLog(ems::store::ArtifactStore* store, const std::string& path,
                     const std::string& format, SpanLedger* ledger,
                     uint64_t* next_op, std::vector<uint64_t>* prime_ops);

/// The op: both logs loaded (through `store` when non-null, else parsed)
/// -> Matcher::Match -> MatchResultToJson.
ems::Result<std::string> RunOp(const PairFiles& pair, const std::string& format,
                               const ems::MatchOptions& options,
                               ems::store::ArtifactStore* store);

/// Normalized digest of each pair's serial (threads = 0) op: the
/// reference every output is checked against.
ems::Result<std::vector<uint64_t>> References(
    const std::vector<PairFiles>& pairs, const std::string& format,
    bool composites);

/// True iff `rendered` is a result whose normalized digest is `reference`.
bool Matches(const ems::Result<std::string>& rendered, uint64_t reference);

/// The seeded order in which a run cycles through `n` pairs.
std::vector<size_t> PairOrder(size_t n, uint64_t seed);

/// Median over `ops` of a per-op map; ops missing from it count 0.
double MedianOver(const std::map<uint64_t, double>& by_op,
                  const std::vector<uint64_t>& ops);

/// num / den, 0 when den is not positive.
double Ratio(double num, double den);

/// Current value of a counter of `obs`.
uint64_t Counter(ems::ObsContext& obs, const char* name);

/// The traced pass over a workload's pairs.
struct PipelineTraceOptions {
  const std::vector<PairFiles>* pairs = nullptr;
  std::string format;
  bool composites = false;
  /// The primed store the warm ops of pair i load through.
  std::function<ems::store::ArtifactStore*(size_t)> store_for;
  double seconds = 0.0;
  uint64_t seed = 1;
};

/// For `seconds`, cycles the pairs: one untraced op, then the op
/// decomposed at hardware concurrency, serially, and warm through the
/// store (with composites also the 1:1 pipeline at both thread counts).
/// Each decomposed op's output is checked against the serial reference;
/// ops that differ are discarded from the ledger and counted failed.
/// Fills the log, store (hash/decode), graph, text, core, assignment,
/// report and exec metrics and trace.overhead_ratio of `out`.
ems::Status TracePipeline(const PipelineTraceOptions& trace,
                          SpanLedger* ledger, uint64_t* next_op,
                          RunResult* out);

ems::Result<RunResult> RunBatchWorkload(const WorkloadConfig& config,
                                        const Inputs& inputs,
                                        const RunSettings& settings);

ems::Result<RunResult> RunServeWorkload(const WorkloadConfig& config,
                                        const Inputs& inputs,
                                        const RunSettings& settings);

}  // namespace perfbench
