// The op and its pieces, shared by every workload: the CLI's options,
// the op from file bytes to rendered JSON, its decomposition at each
// layer's entry point, the reference check, and the traced pass that
// turns decomposed ops into per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <optional>

#include "core/composite_matcher.h"
#include "core/ems_similarity.h"
#include "core/match_report.h"
#include "graph/dependency_graph.h"
#include "obs/context.h"
#include "serve/log_cache.h"
#include "store/hashing.h"
#include "store/snapshot.h"
#include "text/label_similarity.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using ems::Result;
using ems::Status;

ems::MatchOptions OpOptions(bool composites, int threads) {
  ems::MatchOptions options;
  options.label_measure = ems::LabelMeasure::kQGramCosine;
  options.ems.alpha = 0.5;
  options.match_composites = composites;
  // ems_match: default = hardware concurrency, 0 = serial; EmsOptions
  // spells those 0 and 1.
  options.ems.num_threads = threads < 0 ? 0 : (threads == 0 ? 1 : threads);
  return options;
}

void PrintRawTimes(double op_cpu_ms, double op_wall_ms,
                   const ReferenceClock& reference) {
  std::printf("# raw op_cpu_ms=%.3f op_wall_ms=%.3f kernel_cpu_ms=%.3f "
              "kernel_runs=%zu\n",
              op_cpu_ms, op_wall_ms, reference.KernelMs(), reference.runs());
}

void WarnIfThinTail(size_t n, double p) {
  if (TailPercentileFor(n) < p) {
    std::fprintf(stderr,
                 "warning: %zu samples leave fewer than 10 beyond p%g\n", n,
                 p);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

MetricMap ZeroLayerMetrics() {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"log.parse_ms", "ms"},           {"log.parse_mb_per_s", "MB/s"},
      {"store.hash_ms", "ms"},          {"store.decode_ms", "ms"},
      {"store.encode_ms", "ms"},        {"store.hit_ratio", "ratio"},
      {"graph.build_ms", "ms"},         {"graph.edges", "count"},
      {"text.label_ms", "ms"},          {"text.label_pairs", "count"},
      {"core.ems_ms", "ms"},            {"core.ems_iterations", "count"},
      {"core.formula_evals", "count"},  {"core.ns_per_eval", "ns"},
      {"core.composite_ms", "ms"},      {"core.composite_candidates", "count"},
      {"core.composite_merge_ratio", "ratio"},
      {"core.composite_formula_evals", "count"},
      {"assignment.select_ms", "ms"},   {"assignment.cells", "count"},
      {"prob.em_ms", "ms"},             {"prob.em_iterations", "count"},
      {"report.render_ms", "ms"},       {"report.bytes", "bytes"},
      {"exec.label_speedup", "x"},      {"exec.ems_speedup", "x"},
      {"exec.composite_speedup", "x"},  {"serve.service_ms_p50", "ms"},
      {"serve.queue_ms_p50", "ms"},     {"serve.cache_hit_ratio", "ratio"},
      {"serve.max_ops_per_s", "1/s"},
      {"serve.cache_misses", "count"},  {"stream.append_ms_p50", "ms"},
      {"stream.iterations_saved", "count"},
      {"net.overhead_ms_p50", "ms"},    {"net.lag_ms_max", "ms"},
      {"trace.overhead_ratio", "ratio"}, {"wall.op_ms_p50", "ms"},
  };
  MetricMap metrics;
  for (const auto& [name, unit] : kLayers) metrics[name] = Metric{0.0, unit};
  return metrics;
}

Result<ems::EventLog> LoadThroughStoreTraced(ems::store::ArtifactStore* store,
                                             const std::string& path,
                                             const std::string& format,
                                             SpanLedger* ledger, uint64_t op) {
  SpanLedger::Scope hash_span(ledger, "store.hash", op);
  EMS_ASSIGN_OR_RETURN(uint64_t hash, ems::store::HashFile(path));
  hash_span.End();
  const std::string fmt = ems::serve::ResolveLogFormat(path, format);
  const ems::store::ArtifactKey key{ems::store::ArtifactKind::kEventLog, hash,
                                    ems::store::LogFingerprint(fmt)};
  SpanLedger::Scope read_span(ledger, "store.read", op);
  std::optional<std::string> snapshot = store->Load(key);
  read_span.End();
  if (snapshot.has_value()) {
    SpanLedger::Scope decode_span(ledger, "store.decode", op);
    Result<ems::EventLog> decoded = ems::store::DecodeEventLog(*snapshot);
    if (decoded.ok()) return decoded;
  }
  SpanLedger::Scope parse_span(ledger, "log.parse", op);
  EMS_ASSIGN_OR_RETURN(ems::EventLog log,
                       ems::serve::LoadEventLog(path, format));
  parse_span.End();
  SpanLedger::Scope encode_span(ledger, "store.encode", op);
  const std::string encoded = ems::store::EncodeEventLog(log);
  encode_span.End();
  SpanLedger::Scope write_span(ledger, "store.write", op);
  store->Store(key, encoded);
  return log;
}

Status PrimeLog(ems::store::ArtifactStore* store, const std::string& path,
                const std::string& format, SpanLedger* ledger,
                uint64_t* next_op, std::vector<uint64_t>* prime_ops) {
  if (ledger == nullptr) {
    return ems::serve::LoadEventLogThroughStore(store, path, format).status();
  }
  const uint64_t op = (*next_op)++;
  prime_ops->push_back(op);
  SpanLedger::Scope span(ledger, "prime", op);
  return LoadThroughStoreTraced(store, path, format, ledger, op).status();
}

Result<DecomposedOp> RunDecomposed(const PairFiles& pair,
                                   const std::string& format,
                                   const ems::MatchOptions& options,
                                   ems::store::ArtifactStore* store,
                                   SpanLedger* ledger, const std::string& root,
                                   uint64_t op) {
  SpanLedger::Scope root_span(ledger, root, op);
  ems::EventLog logs[2];
  const std::string* paths[2] = {&pair.log1, &pair.log2};
  for (int side = 0; side < 2; ++side) {
    if (store != nullptr) {
      EMS_ASSIGN_OR_RETURN(logs[side],
                           LoadThroughStoreTraced(store, *paths[side], format,
                                                  ledger, op));
    } else {
      SpanLedger::Scope span(ledger, "log.parse", op);
      EMS_ASSIGN_OR_RETURN(logs[side],
                           ems::serve::LoadEventLog(*paths[side], format));
    }
  }

  DecomposedOp out;
  ems::MatchResult result;
  std::unique_ptr<ems::LabelSimilarity> measure =
      ems::MakeLabelMeasure(options.label_measure);
  const bool with_labels = options.label_measure != ems::LabelMeasure::kNone;
  if (options.match_composites) {
    // Matcher::Match's composite branch, option for option.
    ems::CompositeOptions comp = options.composite;
    comp.ems = options.ems;
    comp.graph.min_edge_frequency = options.min_edge_frequency;
    comp.use_estimation = options.engine == ems::SimilarityEngine::kEstimated;
    comp.estimation_iterations = options.estimation_iterations;
    comp.num_threads = options.ems.num_threads;
    comp.pool = options.ems.pool;
    comp.prob = options.prob;
    SpanLedger::Scope span(ledger, "core.composite", op);
    ems::CompositeMatcher matcher(logs[0], logs[1], comp,
                                  with_labels ? measure.get() : nullptr);
    EMS_ASSIGN_OR_RETURN(ems::CompositeMatchResult composite, matcher.Match());
    result.similarity = std::move(composite.similarity);
    result.graph1 = std::move(composite.graph1);
    result.graph2 = std::move(composite.graph2);
    result.composite_stats = composite.stats;
  } else {
    ems::DependencyGraphOptions graph_options;
    graph_options.min_edge_frequency = options.min_edge_frequency;
    {
      SpanLedger::Scope span(ledger, "graph.build", op);
      result.graph1 = ems::DependencyGraph::Build(logs[0], graph_options);
    }
    {
      SpanLedger::Scope span(ledger, "graph.build", op);
      result.graph2 = ems::DependencyGraph::Build(logs[1], graph_options);
    }
    std::vector<std::vector<double>> labels;
    if (with_labels) {
      SpanLedger::Scope span(ledger, "text.label", op);
      labels = ems::LabelSimilarityMatrix(result.graph1, result.graph2,
                                          *measure, options.ems.pool);
    }
    out.label_pairs = static_cast<uint64_t>(result.graph1.NumNodes() *
                                            result.graph2.NumNodes());
    SpanLedger::Scope span(ledger, "core.ems", op);
    ems::EmsSimilarity sim(result.graph1, result.graph2, options.ems,
                           with_labels ? &labels : nullptr);
    result.similarity = sim.Compute();
    result.ems_stats = sim.stats();
  }
  out.edges = result.graph1.NumEdges() + result.graph2.NumEdges();
  const auto real = [](const ems::DependencyGraph& g) {
    return g.NumNodes() - (g.has_artificial() ? 1 : 0);
  };
  out.cells = static_cast<uint64_t>(real(result.graph1) * real(result.graph2));
  {
    SpanLedger::Scope span(ledger, "assignment.select", op);
    ems::SelectCorrespondences(options, logs[0], logs[1], &result);
  }
  {
    SpanLedger::Scope span(ledger, "report.render", op);
    out.rendered = ems::MatchResultToJson(result);
  }
  out.ems_stats = result.ems_stats;
  out.composite_stats = result.composite_stats;
  return out;
}

Result<std::string> RunOp(const PairFiles& pair, const std::string& format,
                          const ems::MatchOptions& options,
                          ems::store::ArtifactStore* store) {
  EMS_ASSIGN_OR_RETURN(
      ems::EventLog log1,
      ems::serve::LoadEventLogThroughStore(store, pair.log1, format));
  EMS_ASSIGN_OR_RETURN(
      ems::EventLog log2,
      ems::serve::LoadEventLogThroughStore(store, pair.log2, format));
  EMS_ASSIGN_OR_RETURN(ems::MatchResult result,
                       ems::Matcher(options).Match(log1, log2));
  return ems::MatchResultToJson(result);
}

uint64_t Counter(ems::ObsContext& obs, const char* name) {
  return obs.metrics.GetCounter(name)->value();
}

double MedianOver(const std::map<uint64_t, double>& by_op,
                  const std::vector<uint64_t>& ops) {
  std::vector<double> values;
  for (uint64_t op : ops) {
    auto it = by_op.find(op);
    values.push_back(it == by_op.end() ? 0.0 : it->second);
  }
  return Median(values);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Result<std::vector<uint64_t>> References(const std::vector<PairFiles>& pairs,
                                         const std::string& format,
                                         bool composites) {
  std::vector<uint64_t> refs;
  for (const PairFiles& pair : pairs) {
    EMS_ASSIGN_OR_RETURN(std::string rendered,
                         RunOp(pair, format, OpOptions(composites, 0),
                               nullptr));
    EMS_ASSIGN_OR_RETURN(uint64_t digest, NormalizedDigest(rendered));
    refs.push_back(digest);
  }
  return refs;
}

bool Matches(const Result<std::string>& rendered, uint64_t reference) {
  if (!rendered.ok()) return false;
  Result<uint64_t> digest = NormalizedDigest(*rendered);
  return digest.ok() && *digest == reference;
}

std::vector<size_t> PairOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  SeededRng rng(seed);
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Index(i + 1)]);
  }
  return order;
}


Status TracePipeline(const PipelineTraceOptions& trace, SpanLedger* ledger,
                     uint64_t* next_op, RunResult* out) {
  const std::vector<PairFiles>& pairs = *trace.pairs;
  const bool composites = trace.composites;
  EMS_ASSIGN_OR_RETURN(std::vector<uint64_t> refs,
                       References(pairs, trace.format, composites));
  // With composites, the 1:1 pipeline on the same pairs shows the graph,
  // label, EMS and selection layers the composite search runs inside.
  std::vector<uint64_t> flat_refs;
  if (composites) {
    EMS_ASSIGN_OR_RETURN(flat_refs, References(pairs, trace.format, false));
  }

  struct Role {
    const char* root;
    bool composites;
    int threads;
    bool warm;
    std::vector<uint64_t> ops;          // counted ops only
    std::vector<size_t> pairs;          // pair of each counted op
    std::vector<DecomposedOp> outputs;  // output of each counted op
  };
  std::vector<Role> roles = {
      {"op", composites, -1, false, {}, {}, {}},
      {"op.serial", composites, 0, false, {}, {}, {}},
      {"op.warm", composites, -1, true, {}, {}, {}},
  };
  if (composites) {
    roles.push_back({"op.flat", false, -1, false, {}, {}, {}});
    roles.push_back({"op.flat.serial", false, 0, false, {}, {}, {}});
  }
  const ems::MatchOptions untraced_options = OpOptions(composites, -1);
  std::vector<double> untraced_ms;
  const std::vector<size_t> order = PairOrder(pairs.size(), trace.seed);
  ems::Timer run;
  // Whole rounds over the pairs, as in the untraced run.
  for (size_t i = 0;
       i % order.size() != 0 || run.ElapsedSeconds() < trace.seconds; ++i) {
    const size_t p = order[i % order.size()];
    ems::Timer op_timer;
    Result<std::string> plain =
        RunOp(pairs[p], trace.format, untraced_options, nullptr);
    untraced_ms.push_back(op_timer.ElapsedMillis());
    ++out->attempted;
    if (!Matches(plain, refs[p])) ++out->failed;
    for (Role& role : roles) {
      const uint64_t op = (*next_op)++;
      Result<DecomposedOp> decomposed = RunDecomposed(
          pairs[p], trace.format, OpOptions(role.composites, role.threads),
          role.warm ? trace.store_for(p) : nullptr, ledger, role.root, op);
      const uint64_t ref =
          role.composites == composites ? refs[p] : flat_refs[p];
      ++out->attempted;
      if (!decomposed.ok() || !Matches(decomposed->rendered, ref)) {
        ++out->failed;
        ledger->Discard(op);
        continue;
      }
      role.ops.push_back(op);
      role.pairs.push_back(p);
      role.outputs.push_back(std::move(*decomposed));
    }
  }
  for (const Role& role : roles) {
    if (role.ops.empty()) return Status::Internal("no counted traced op");
  }
  const Role& primary = roles[0];
  const Role& serial = roles[1];
  const Role& warm = roles[2];
  const Role& flat = composites ? roles[3] : roles[0];
  const Role& flat_serial = composites ? roles[4] : roles[1];

  auto self = [&](const char* span, const Role& role) {
    return MedianOver(ledger->SelfTimeByOp(span), role.ops);
  };
  auto median_of = [](const Role& role, auto field) {
    std::vector<double> values;
    for (const DecomposedOp& d : role.outputs) values.push_back(field(d));
    return Median(values);
  };
  MetricMap& m = out->metrics;
  m["log.parse_ms"].value = self("log.parse", primary);
  {
    std::vector<double> rates;
    const auto parse = ledger->SelfTimeByOp("log.parse");
    for (size_t k = 0; k < primary.ops.size(); ++k) {
      auto it = parse.find(primary.ops[k]);
      if (it == parse.end() || it->second <= 0.0) continue;
      rates.push_back(static_cast<double>(pairs[primary.pairs[k]].bytes) /
                      1e6 / (it->second / 1000.0));
    }
    m["log.parse_mb_per_s"].value = Median(rates);
  }
  m["store.hash_ms"].value = self("store.hash", warm);
  m["store.decode_ms"].value =
      self("store.read", warm) + self("store.decode", warm);
  m["graph.build_ms"].value = self("graph.build", flat);
  m["graph.edges"].value =
      median_of(flat, [](const DecomposedOp& d) { return double(d.edges); });
  m["text.label_ms"].value = self("text.label", flat);
  m["text.label_pairs"].value = median_of(
      flat, [](const DecomposedOp& d) { return double(d.label_pairs); });
  m["core.ems_ms"].value = self("core.ems", flat);
  m["core.ems_iterations"].value =
      median_of(flat_serial, [](const DecomposedOp& d) {
        return double(d.ems_stats.iterations);
      });
  const double evals = median_of(flat_serial, [](const DecomposedOp& d) {
    return double(d.ems_stats.formula_evaluations);
  });
  m["core.formula_evals"].value = evals;
  m["core.ns_per_eval"].value =
      Ratio(self("core.ems", flat_serial) * 1e6, evals);
  if (composites) {
    m["core.composite_ms"].value = self("core.composite", primary);
    const double candidates = median_of(serial, [](const DecomposedOp& d) {
      return double(d.composite_stats.candidates_evaluated);
    });
    m["core.composite_candidates"].value = candidates;
    m["core.composite_merge_ratio"].value = Ratio(
        median_of(serial,
                  [](const DecomposedOp& d) {
                    return double(d.composite_stats.merges_accepted);
                  }),
        candidates);
    m["core.composite_formula_evals"].value =
        median_of(serial, [](const DecomposedOp& d) {
          return double(d.composite_stats.formula_evaluations);
        });
    m["exec.composite_speedup"].value =
        Ratio(self("core.composite", serial), self("core.composite", primary));
  }
  m["assignment.select_ms"].value = self("assignment.select", flat);
  m["assignment.cells"].value =
      median_of(flat, [](const DecomposedOp& d) { return double(d.cells); });
  m["report.render_ms"].value = self("report.render", primary);
  m["report.bytes"].value = median_of(
      primary, [](const DecomposedOp& d) { return double(d.rendered.size()); });
  m["exec.label_speedup"].value =
      Ratio(self("text.label", flat_serial), self("text.label", flat));
  m["exec.ems_speedup"].value =
      Ratio(self("core.ems", flat_serial), self("core.ems", flat));
  m["wall.op_ms_p50"].value = Median(untraced_ms);
  m["trace.overhead_ratio"].value =
      Ratio(MedianOver(ledger->DurationByOp(primary.root), primary.ops),
            Median(untraced_ms)) -
      1.0;
  return Status::OK();
}
}  // namespace perfbench
