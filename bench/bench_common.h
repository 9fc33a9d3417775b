// Shared machinery of the figure-reproduction benches: each binary
// regenerates the corpus deterministically, runs the methods of
// Section 5, and prints the same series the paper's figure plots. Every
// bench parses its flags and environment through Init, whose rows are
// below.
//
// When the EMS_BENCH_JSON_DIR environment variable names a directory,
// every RunGroup call additionally instruments its runs with an
// ObsContext and the binary writes BENCH_<figure>.json there at exit:
// one record per group with quality, timing, formula evaluations, and
// the per-phase wall-time breakdown (graph_build, ems_fixpoint, ...).
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "eval/table.h"
#include "exec/thread_pool.h"
#include "obs/context.h"
#include "synth/dataset.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace ems {
namespace bench {

/// The flags every bench shares.
struct CommonFlags {
  int threads;
};

inline const OptionSpec<CommonFlags> kCommonFlags[] = {
    ThreadsOption<CommonFlags>()};

/// The environment every bench reads.
struct BenchEnv {
  double scale;
  int pairs_per_size;
  std::string json_dir;
};

inline const OptionSpec<BenchEnv> kBenchEnv[] = {
    {.key = "EMS_BENCH_SCALE", .fallback = 1, .min = 0, .max = 1,
     .min_open = true,
     .doc = "corpus scale of the figure benches (1: the paper's 149 pairs)",
     EMS_OPTION_FIELD(BenchEnv, scale)},
    {.key = "EMS_BENCH_PAIRS_PER_SIZE", .type = OptionType::kInteger,
     .fallback = 5, .min = 1,
     .doc = "pairs per rung of the scalability and dislocation sweeps",
     EMS_OPTION_FIELD(BenchEnv, pairs_per_size)},
    {.key = "EMS_BENCH_JSON_DIR", .type = OptionType::kText, .choices = "DIR",
     .doc = "write BENCH_<figure>.json with per-phase breakdowns to DIR",
     EMS_OPTION_FIELD(BenchEnv, json_dir)},
};

/// The shared flags and environment as parsed by Init (the rows'
/// defaults before it runs).
struct BenchSettings {
  CommonFlags flags = OptionParser<CommonFlags>(kCommonFlags).target();
  BenchEnv env = OptionParser<BenchEnv>(kBenchEnv).target();
};

inline BenchSettings& Settings() {
  static BenchSettings settings;
  return settings;
}

/// Effective worker count (>= 1; 1 = serial sweeps).
inline int BenchWorkers() { return std::max(Settings().flags.threads, 1); }

/// The pool shared by every RunGroup sweep of this binary, or null when
/// running serially. Sized on first use — call Init before RunGroup.
inline exec::ThreadPool* BenchPool() {
  if (BenchWorkers() <= 1) return nullptr;
  static exec::ThreadPool pool(BenchWorkers());
  return &pool;
}

/// Parses argv once through the shared --threads row and then `own`
/// (a bench's own rows), and the environment through kBenchEnv. Any
/// usage error prints the generated usage text and exits 2. Call at the
/// top of main, before the first RunGroup.
template <typename... Own>
void Init(int argc, char** argv, OptionParser<Own>&... own) {
  OptionParser<CommonFlags> common(kCommonFlags);
  OptionParser<BenchEnv> env(kBenchEnv);
  Status parsed = ParseArgs(argc, argv, nullptr, common, own...);
  if (parsed.ok()) parsed = ParseEnv(env);
  if (!parsed.ok()) {
    std::exit(UsageError(parsed, argv[0], "[options], reading EMS_BENCH_*",
                         common, own...));
  }
  Settings() = {common.target(), env.target()};
}

/// Aggregated outcome of running one method over a group of log pairs.
struct GroupResult {
  MatchQuality quality;       // macro-averaged
  double mean_millis = 0.0;
  int dnf = 0;                // pairs the method could not finish (OPQ)
  uint64_t formula_evaluations = 0;
  int pairs = 0;

  /// Total wall time per instrumented phase across all pairs of the
  /// group, in ms. Empty unless EMS_BENCH_JSON_DIR enabled tracing.
  std::map<std::string, double> phase_millis;

  /// Wall-time speedup vs a serial reference sweep (bench_parallel);
  /// 0 when the group was not measured against one.
  double speedup = 0.0;
};

/// Commit the bench binary was configured from (stamped by CMake), so a
/// BENCH_*.json lying around is attributable to the code that made it.
inline const char* BenchGitSha() {
#ifdef EMS_BUILD_GIT_SHA
  return EMS_BUILD_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Compiler that built the bench binary.
inline std::string BenchCompiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#elif defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

/// Directory for BENCH_*.json exports, or empty when disabled.
inline const std::string& BenchJsonDir() { return Settings().env.json_dir; }

/// Pairs per rung of the scalability and dislocation sweeps.
inline int BenchPairsPerSize() { return Settings().env.pairs_per_size; }

/// Collects one benchmark binary's group records and writes
/// BENCH_<figure>.json on destruction (program exit). PrintHeader names
/// the figure; RunGroup appends records automatically.
class BenchJsonRecorder {
 public:
  static BenchJsonRecorder& Instance() {
    static BenchJsonRecorder recorder;
    return recorder;
  }

  void SetFigure(const std::string& figure, const std::string& description) {
    if (figure_.empty()) figure_ = Sanitize(figure);
    description_ = description;
  }

  void AddGroup(const std::string& method, const GroupResult& group) {
    if (BenchJsonDir().empty()) return;
    records_.push_back({method, group});
    // Rewritten after every group: a run that dies mid-way (OPQ budget
    // blowup, OOM kill, ^C between groups) leaves the last complete
    // document instead of nothing.
    Flush();
  }

  /// Writes BENCH_<figure>.json with the records so far. Atomic
  /// (tmp file + rename), so readers never observe truncated JSON.
  /// Idempotent; also runs on destruction (program exit).
  void Flush() {
    if (BenchJsonDir().empty() || records_.empty()) return;
    JsonWriter w;
    w.BeginObject();
    w.Key("figure");
    w.String(figure_.empty() ? "unknown" : figure_);
    w.Key("description");
    w.String(description_);
    w.Key("threads");
    w.Int(BenchWorkers());
    w.Key("git_sha");
    w.String(BenchGitSha());
    w.Key("compiler");
    w.String(BenchCompiler());
    w.Key("groups");
    w.BeginArray();
    for (const auto& [method, group] : records_) {
      w.BeginObject();
      w.Key("method");
      w.String(method);
      w.Key("pairs");
      w.Int(group.pairs);
      w.Key("dnf");
      w.Int(group.dnf);
      w.Key("f_measure");
      w.Number(group.quality.f_measure);
      w.Key("precision");
      w.Number(group.quality.precision);
      w.Key("recall");
      w.Number(group.quality.recall);
      w.Key("mean_millis");
      w.Number(group.mean_millis);
      w.Key("formula_evaluations");
      w.Int(static_cast<long long>(group.formula_evaluations));
      if (group.speedup > 0.0) {
        w.Key("speedup");
        w.Number(group.speedup);
      }
      w.Key("phase_millis");
      w.BeginObject();
      for (const auto& [phase, ms] : group.phase_millis) {
        w.Key(phase);
        w.Number(ms);
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    const std::string path =
        BenchJsonDir() + "/BENCH_" +
        (figure_.empty() ? std::string("unknown") : figure_) + ".json";
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp);
    if (!out) return;
    out << w.str() << "\n";
    out.flush();
    const bool good = out.good();
    out.close();
    if (good) std::rename(tmp.c_str(), path.c_str());
    else std::remove(tmp.c_str());
  }

  ~BenchJsonRecorder() { Flush(); }

 private:
  BenchJsonRecorder() = default;

  static std::string Sanitize(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      else if (!out.empty() && out.back() != '_') out += '_';
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out;
  }

  std::string figure_;
  std::string description_;
  std::vector<std::pair<std::string, GroupResult>> records_;
};

inline GroupResult RunGroup(Method method,
                            const std::vector<const LogPair*>& pairs,
                            const HarnessOptions& options) {
  GroupResult group;
  QualityAccumulator acc;
  double total_ms = 0.0;
  const bool tracing = !BenchJsonDir().empty();
  // Pairs fan out across the bench pool (serial when --threads=0); runs
  // come back index-aligned and bit-identical to a serial sweep. A fresh
  // context per pair keeps the span count well under the recorder's cap;
  // durations aggregate by phase name below.
  std::vector<std::unique_ptr<ObsContext>> per_pair_obs;
  const std::vector<MethodRun> runs = RunMethodOnPairs(
      method, pairs, options, BenchPool(), tracing ? &per_pair_obs : nullptr);
  for (size_t i = 0; i < runs.size(); ++i) {
    const MethodRun& run = runs[i];
    total_ms += run.millis;
    if (tracing) {
      for (const SpanRecord& span : per_pair_obs[i]->trace.Snapshot()) {
        if (span.duration_us < 0) continue;
        group.phase_millis[span.name] +=
            static_cast<double>(span.duration_us) / 1000.0;
      }
    }
    if (run.dnf) {
      ++group.dnf;
      continue;
    }
    acc.Add(run.quality);
    group.formula_evaluations += run.ems_stats.formula_evaluations +
                                 run.composite_stats.formula_evaluations;
  }
  group.quality = acc.Mean();
  group.pairs = static_cast<int>(pairs.size());
  group.mean_millis =
      pairs.empty() ? 0.0 : total_ms / static_cast<double>(pairs.size());
  BenchJsonRecorder::Instance().AddGroup(MethodName(method), group);
  return group;
}

inline std::vector<const LogPair*> Pointers(const std::vector<LogPair>& v) {
  std::vector<const LogPair*> out;
  out.reserve(v.size());
  for (const auto& p : v) out.push_back(&p);
  return out;
}

/// "0.812" or "DNF" when no pair finished.
inline std::string FCell(const GroupResult& r) {
  if (r.dnf == r.pairs && r.pairs > 0) return "DNF";
  std::string cell = Cell(r.quality.f_measure);
  if (r.dnf > 0) cell += "*";  // some pairs timed out
  return cell;
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("=====================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("=====================================================\n");
  BenchJsonRecorder::Instance().SetFigure(figure, description);
}

/// The corpus used by the singleton-matching figures, scaled by
/// EMS_BENCH_SCALE (smaller values shrink groups proportionally for
/// quick runs).
inline RealisticDatasetOptions ScaledDatasetOptions() {
  RealisticDatasetOptions opts;
  const double scale = Settings().env.scale;
  auto scaled = [scale](int n) {
    int v = static_cast<int>(n * scale);
    return v < 1 ? 1 : v;
  };
  opts.ds_f_pairs = scaled(opts.ds_f_pairs);
  opts.ds_b_pairs = scaled(opts.ds_b_pairs);
  opts.ds_fb_pairs = scaled(opts.ds_fb_pairs);
  opts.composite_pairs = scaled(opts.composite_pairs);
  return opts;
}

}  // namespace bench
}  // namespace ems
