// The batch workloads (xes_pair, wide_trace, composite_pair): one op is
// LoadEventLog of both files -> Matcher::Match -> MatchResultToJson, run
// serially; its cost is the CPU time it takes from file bytes to
// rendered JSON over that of the reference kernel. The warm op loads
// both logs through the artifact store set-up primed. The traced run
// times the same op decomposed at each layer's entry point
// (TracePipeline), at hardware concurrency and serially.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>

#include "obs/context.h"
#include "serve/log_cache.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using ems::Result;
using ems::Status;

namespace {

// A primed artifact store: every input log parsed and snapshotted.
struct PrimedStore {
  ems::ObsContext obs;  // store.* counters
  std::optional<ems::store::ArtifactStore> store;
};

Status Prime(const Inputs& inputs, const std::string& format,
             const std::string& dir, PrimedStore* primed, SpanLedger* ledger,
             uint64_t* next_op, std::vector<uint64_t>* prime_ops) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ems::store::ArtifactStoreOptions options;
  options.dir = dir;
  options.obs = &primed->obs;
  EMS_ASSIGN_OR_RETURN(ems::store::ArtifactStore store,
                       ems::store::ArtifactStore::Open(options));
  primed->store.emplace(std::move(store));
  for (const PairFiles& pair : inputs.pairs) {
    for (const std::string* path : {&pair.log1, &pair.log2}) {
      EMS_RETURN_NOT_OK(PrimeLog(&*primed->store, *path, format, ledger,
                                 next_op, prime_ops));
    }
  }
  return Status::OK();
}

// Cold rounds per warm round. A round runs every pair once, and runs
// are whole rounds: each pair counts equally in every percentile, so a
// percentile never lands on whichever pair happened to run once more.
constexpr size_t kColdRoundsPerWarm = 4;

Result<RunResult> RunUntraced(const WorkloadConfig& config,
                              const Inputs& inputs,
                              const RunSettings& settings) {
  const bool composites = config.composites > 0;
  RunResult out;
  std::vector<double> setups;
  PrimedStore primed;
  ReferenceClock setup_reference;
  for (ems::Timer total; KeepSettingUp(setups, total.ElapsedSeconds());) {
    primed.store.reset();
    EMS_ASSIGN_OR_RETURN(double setup_s, TimeSetUp(&setup_reference, [&] {
                           return Prime(inputs, config.format,
                                        settings.data_dir + "/store", &primed,
                                        nullptr, nullptr, nullptr);
                         }));
    setups.push_back(setup_s);
  }
  // Checking, not set-up: also warms code and page cache before timing.
  EMS_ASSIGN_OR_RETURN(std::vector<uint64_t> refs,
                       References(inputs.pairs, config.format, composites));

  // Serial ops: one thread is timed by its CPU time alone, where a pool
  // of nproc threads on a shared host would also time the scheduler.
  // The op at hardware concurrency is timed in the traced run. Costs
  // are CPU time in runs of the reference kernel (calibrate.h), which
  // runs between the ops; each op is set against the kernel runs
  // nearest to it in time.
  const ems::MatchOptions options = OpOptions(composites, 0);
  const std::vector<size_t> order =
      PairOrder(inputs.pairs.size(), settings.seed);
  struct Sample {
    size_t pair;
    size_t round;  // cold rounds only count in ops_per_kernel
    bool warm;
    double at_ms;  // on the reference clock
    double cpu_ms;
    double wall_ms;
  };
  std::vector<Sample> samples;
  std::vector<double> f_by_pair(inputs.pairs.size(), -1.0);
  ReferenceClock reference;
  ems::Timer run;
  for (size_t round = 0;
       round < kColdRoundsPerWarm || run.ElapsedSeconds() < settings.seconds;
       ++round) {
    const bool warm = round % kColdRoundsPerWarm == kColdRoundsPerWarm - 1;
    for (bool warm_op : {false, true}) {
      if (warm_op && !warm) continue;
      for (size_t p : order) {
        const PairFiles& pair = inputs.pairs[p];
        reference.Tick();
        const double at_ms = reference.NowMs();
        ems::Timer wall;
        CpuTimer cpu;
        Result<std::string> rendered = RunOp(
            pair, config.format, options, warm_op ? &*primed.store : nullptr);
        samples.push_back({p, round, warm_op, at_ms, cpu.ElapsedMillis(),
                           wall.ElapsedMillis()});
        ++out.attempted;
        if (!Matches(rendered, refs[p])) {
          ++out.failed;
          continue;
        }
        if (!warm_op) {
          EMS_ASSIGN_OR_RETURN(f_by_pair[p],
                               FMeasureOfRendered(*rendered, pair.truth));
        }
      }
    }
  }
  if (!reference.consistent()) {
    return Status::Internal("the reference kernel changed its result");
  }
  size_t cold_ops = 0;
  std::vector<std::vector<double>> cold_by_pair(inputs.pairs.size()),
      warm_by_pair(inputs.pairs.size()), cpu_by_pair(inputs.pairs.size()),
      wall_by_pair(inputs.pairs.size());
  std::map<size_t, double> round_cost;
  for (const Sample& s : samples) {
    const double cost = reference.CostAt(s.cpu_ms, s.at_ms);
    (s.warm ? warm_by_pair : cold_by_pair)[s.pair].push_back(cost);
    if (s.warm) continue;
    ++cold_ops;
    round_cost[s.round] += cost;
    cpu_by_pair[s.pair].push_back(s.cpu_ms);
    wall_by_pair[s.pair].push_back(s.wall_ms);
  }
  // Throughput: ops per kernel run's worth of CPU, median over rounds.
  std::vector<double> round_ops_per_kernel;
  for (const auto& [round, cost] : round_cost) {
    round_ops_per_kernel.push_back(static_cast<double>(order.size()) / cost);
  }
  double f_sum = 0.0;
  for (double f : f_by_pair) {
    f_sum += std::max(f, 0.0);
  }
  // The tail per pair, averaged: the ops of one pair differ by the
  // host's noise alone, and the costliest pairs, which a pooled tail
  // would be made of, follow the host's speed by another share than the
  // reference kernel does.
  double tail_sum = 0.0;
  for (const std::vector<double>& costs : cold_by_pair) {
    tail_sum += Percentile(costs, config.tail_percentile);
  }
  WarnIfThinTail(cold_ops, config.tail_percentile);
  PrintRawTimes(MeanOfMedians(cpu_by_pair), MeanOfMedians(wall_by_pair),
                reference);
  out.metrics["setup_s"] = {Median(setups), "s"};
  out.metrics["op_cost_p50"] = {MeanOfMedians(cold_by_pair), "x"};
  out.metrics["op_cost_tail"] = {
      tail_sum / static_cast<double>(cold_by_pair.size()), "x"};
  out.metrics["warm_op_cost_p50"] = {MeanOfMedians(warm_by_pair), "x"};
  out.metrics["ops_per_kernel"] = {Median(round_ops_per_kernel), "1/x"};
  out.metrics["f_measure"] = {f_sum / static_cast<double>(f_by_pair.size()),
                              "ratio"};
  return out;
}

Result<RunResult> RunTraced(const WorkloadConfig& config, const Inputs& inputs,
                            const RunSettings& settings) {
  RunResult out;
  out.metrics = ZeroLayerMetrics();
  SpanLedger ledger;
  uint64_t next_op = 1;
  PrimedStore primed;
  std::vector<uint64_t> prime_ops;
  EMS_RETURN_NOT_OK(Prime(inputs, config.format, settings.data_dir + "/store",
                          &primed, &ledger, &next_op, &prime_ops));
  out.metrics["store.encode_ms"].value =
      MedianOver(ledger.SelfTimeByOp("store.encode"), prime_ops);
  const uint64_t hits0 = Counter(primed.obs, "store.hits");
  const uint64_t misses0 = Counter(primed.obs, "store.misses");

  PipelineTraceOptions trace;
  trace.pairs = &inputs.pairs;
  trace.format = config.format;
  trace.composites = config.composites > 0;
  trace.store_for = [&](size_t) { return &*primed.store; };
  trace.seconds = settings.seconds;
  trace.seed = settings.seed;
  EMS_RETURN_NOT_OK(TracePipeline(trace, &ledger, &next_op, &out));

  const double hits =
      static_cast<double>(Counter(primed.obs, "store.hits") - hits0);
  const double misses =
      static_cast<double>(Counter(primed.obs, "store.misses") - misses0);
  out.metrics["store.hit_ratio"].value = Ratio(hits, hits + misses);
  if (!settings.trace_out.empty()) {
    EMS_RETURN_NOT_OK(ledger.WriteJson(settings.trace_out));
  }
  return out;
}

}  // namespace

Result<RunResult> RunBatchWorkload(const WorkloadConfig& config,
                                   const Inputs& inputs,
                                   const RunSettings& settings) {
  return settings.trace ? RunTraced(config, inputs, settings)
                        : RunUntraced(config, inputs, settings);
}

}  // namespace perfbench
