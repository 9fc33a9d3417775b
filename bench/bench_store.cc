// Persistent-store benchmark: cold parse + snapshot write vs warm
// snapshot load for the artifact store (docs/PERSISTENCE.md), on a
// synthetic trace-format corpus. Also times dependency-graph rebuild
// against snapshot decode to size the graph-artifact payoff.
//
// Doubles as an equivalence harness: warm-loaded logs must re-encode to
// the exact bytes of their cold-parsed sources and must drive the full
// matcher to an identical result document; decoded graphs must re-encode
// to the bytes they were decoded from. The binary exits nonzero on any
// mismatch, so the CI cache-reuse step also guards the bit-identity
// contract.
//
// When EMS_BENCH_JSON_DIR names a directory, writes BENCH_store.json
// there (atomically, tmp + rename) with per-configuration timing, the
// cold/warm speedup, store counters, and on-disk snapshot bytes.
//
// Flags: the rows of kFlags below; a usage error prints them.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/match_report.h"
#include "core/matcher.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "log/log_io.h"
#include "obs/context.h"
#include "serve/log_cache.h"
#include "store/artifact_store.h"
#include "store/snapshot.h"
#include "synth/log_generator.h"
#include "synth/process_tree.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/timer.h"

namespace ems {
namespace {

using enum OptionType;

namespace fs = std::filesystem;

struct ConfigResult {
  std::string name;
  double best_millis = 0.0;  // fastest rep (noise-robust)
  double mean_millis = 0.0;
};

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

ConfigResult Finish(const std::string& name,
                    const std::vector<double>& times) {
  ConfigResult r;
  r.name = name;
  double total = 0.0;
  for (size_t i = 0; i < times.size(); ++i) {
    total += times[i];
    if (i == 0 || times[i] < r.best_millis) r.best_millis = times[i];
  }
  r.mean_millis = times.empty() ? 0.0 : total / times.size();
  return r;
}

void WriteJson(const std::vector<ConfigResult>& results, int activities,
               int traces, int reps, double speedup_warm,
               uint64_t snapshot_bytes, const ObsContext& obs) {
  const std::string& dir = bench::BenchJsonDir();
  if (dir.empty()) return;
  JsonWriter w;
  w.BeginObject();
  w.Key("figure");
  w.String("store");
  w.Key("description");
  w.String("artifact store: cold parse+write vs warm snapshot load");
  w.Key("activities");
  w.Int(activities);
  w.Key("traces");
  w.Int(traces);
  w.Key("reps");
  w.Int(reps);
  w.Key("speedup_warm_load");
  w.Number(speedup_warm);
  w.Key("snapshot_bytes");
  w.Int(static_cast<long long>(snapshot_bytes));
  for (const char* counter :
       {"store.hits", "store.misses", "store.writes", "store.bytes_read",
        "store.bytes_written", "store.fallback_rederives"}) {
    w.Key(counter);
    w.Int(static_cast<long long>(obs.metrics.CounterValue(counter)));
  }
  w.Key("groups");
  w.BeginArray();
  for (const ConfigResult& r : results) {
    w.BeginObject();
    w.Key("method");
    w.String(r.name);
    w.Key("best_millis");
    w.Number(r.best_millis);
    w.Key("mean_millis");
    w.Number(r.mean_millis);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string path = dir + "/BENCH_store.json";
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

struct Flags {
  int activities;
  int traces;
  int reps;
  uint64_t seed;
};

const OptionSpec<Flags> kFlags[] = {
    {.key = "activities", .type = kInteger, .fallback = 30, .min = 2,
     .doc = "activities of the process", EMS_OPTION_FIELD(Flags, activities)},
    {.key = "traces", .type = kInteger, .fallback = 2000, .min = 1,
     .doc = "traces per log", EMS_OPTION_FIELD(Flags, traces)},
    {.key = "reps", .type = kInteger, .fallback = 5, .min = 1,
     .doc = "timed repetitions", EMS_OPTION_FIELD(Flags, reps)},
    {.key = "seed", .type = kInteger, .fallback = 17, .min = 0,
     .doc = "corpus seed", EMS_OPTION_FIELD(Flags, seed)},
};

int Main(int argc, char** argv) {
  OptionParser<Flags> parser(kFlags);
  bench::Init(argc, argv, parser);
  const auto& [activities, traces, reps, seed] = parser.target();

  std::printf("=====================================================\n");
  std::printf("store — cold parse vs warm snapshot load (%d activities, "
              "%d traces)\n",
              activities, traces);
  std::printf("=====================================================\n");

  // Deterministic corpus: one process tree, two playouts.
  Rng rng(seed);
  ProcessTreeOptions tree_options;
  tree_options.num_activities = activities;
  std::unique_ptr<ProcessNode> tree = GenerateProcessTree(tree_options, &rng);
  PlayoutOptions playout;
  playout.num_traces = traces;
  const EventLog source1 = PlayoutLog(*tree, playout, &rng);
  const EventLog source2 = PlayoutLog(*tree, playout, &rng);

  const std::string dir = TempDir();
  const std::string log1_path = dir + "/bench_store_log1.txt";
  const std::string log2_path = dir + "/bench_store_log2.txt";
  const std::string cache_dir = dir + "/bench_store_cache";
  for (const auto& [log, path] :
       {std::pair<const EventLog*, const std::string*>{&source1, &log1_path},
        {&source2, &log2_path}}) {
    Status st = WriteTraceFile(*log, *path);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", path->c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  ObsContext obs;
  auto open_store = [&]() -> store::ArtifactStore {
    store::ArtifactStoreOptions options;
    options.dir = cache_dir;
    options.obs = &obs;
    Result<store::ArtifactStore> opened =
        store::ArtifactStore::Open(std::move(options));
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open store: %s\n",
                   opened.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(opened).value();
  };
  auto load_both = [&](store::ArtifactStore* store_ptr)
      -> std::pair<EventLog, EventLog> {
    Result<EventLog> l1 =
        serve::LoadEventLogThroughStore(store_ptr, log1_path, "trace");
    Result<EventLog> l2 =
        serve::LoadEventLogThroughStore(store_ptr, log2_path, "trace");
    if (!l1.ok() || !l2.ok()) {
      std::fprintf(stderr, "load failed\n");
      std::exit(1);
    }
    return {std::move(l1).value(), std::move(l2).value()};
  };

  std::vector<ConfigResult> results;

  // Baseline: plain parse, no store in the loop.
  {
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      load_both(nullptr);
      times.push_back(timer.ElapsedMillis());
    }
    results.push_back(Finish("parse_direct", times));
  }

  // Cold: empty cache dir every rep — parse from source plus the
  // snapshot write-back.
  EventLog cold1, cold2;
  {
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      fs::remove_all(cache_dir);
      store::ArtifactStore store = open_store();
      Timer timer;
      auto [l1, l2] = load_both(&store);
      times.push_back(timer.ElapsedMillis());
      if (rep == 0) {
        cold1 = std::move(l1);
        cold2 = std::move(l2);
      }
    }
    results.push_back(Finish("parse_cold_store", times));
  }

  // Warm: the cache dir left by the last cold rep — snapshot decode
  // only, source parser never runs.
  EventLog warm1, warm2;
  uint64_t snapshot_bytes = 0;
  {
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      store::ArtifactStore store = open_store();
      Timer timer;
      auto [l1, l2] = load_both(&store);
      times.push_back(timer.ElapsedMillis());
      if (rep == 0) {
        warm1 = std::move(l1);
        warm2 = std::move(l2);
        snapshot_bytes = store.TotalBytes();
      }
    }
    results.push_back(Finish("snapshot_warm_load", times));
  }

  // Graph artifacts: full rebuild from the log vs snapshot decode.
  const std::string graph_snapshot = store::EncodeDependencyGraph(
      DependencyGraph::Build(cold1), /*include_distances=*/true);
  {
    std::vector<double> build_times, decode_times;
    for (int rep = 0; rep < reps; ++rep) {
      Timer build_timer;
      DependencyGraph g = DependencyGraph::Build(cold1);
      build_times.push_back(build_timer.ElapsedMillis());
      Timer decode_timer;
      Result<DependencyGraph> decoded =
          store::DecodeDependencyGraph(graph_snapshot);
      decode_times.push_back(decode_timer.ElapsedMillis());
      if (!decoded.ok()) {
        std::fprintf(stderr, "graph decode failed: %s\n",
                     decoded.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 &&
          store::EncodeDependencyGraph(*decoded, true) != graph_snapshot) {
        std::fprintf(stderr,
                     "EQUIVALENCE FAILURE: graph decode/re-encode drifted\n");
        return 1;
      }
    }
    results.push_back(Finish("graph_build", build_times));
    results.push_back(Finish("graph_decode", decode_times));
  }

  for (const ConfigResult& r : results) {
    std::printf("%-20s best %8.3f ms  mean %8.3f ms\n", r.name.c_str(),
                r.best_millis, r.mean_millis);
  }

  // Equivalence harness: snapshot-loaded logs are bit-identical to the
  // parsed ones and drive the matcher to the same result document.
  if (store::EncodeEventLog(warm1) != store::EncodeEventLog(cold1) ||
      store::EncodeEventLog(warm2) != store::EncodeEventLog(cold2)) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE: warm logs re-encode differently\n");
    return 1;
  }
  MatchOptions match_options;
  match_options.ems.num_threads = 1;
  Matcher matcher(match_options);
  Result<MatchResult> cold_match = matcher.Match(cold1, cold2);
  Result<MatchResult> warm_match = matcher.Match(warm1, warm2);
  if (!cold_match.ok() || !warm_match.ok()) {
    std::fprintf(stderr, "matching failed\n");
    return 1;
  }
  if (MatchResultToJson(*cold_match) != MatchResultToJson(*warm_match)) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE: cold and warm match results differ\n");
    return 1;
  }
  std::printf("equivalence: warm snapshots bit-identical, match results "
              "identical (%zu correspondences)\n",
              cold_match->correspondences.size());

  const double speedup_warm =
      results[2].best_millis > 0.0
          ? results[1].best_millis / results[2].best_millis
          : 0.0;
  std::printf("cold/warm load speedup: %.2fx  (snapshots on disk: %llu "
              "bytes; store.hits=%llu misses=%llu writes=%llu)\n",
              speedup_warm,
              static_cast<unsigned long long>(snapshot_bytes),
              static_cast<unsigned long long>(
                  obs.metrics.CounterValue("store.hits")),
              static_cast<unsigned long long>(
                  obs.metrics.CounterValue("store.misses")),
              static_cast<unsigned long long>(
                  obs.metrics.CounterValue("store.writes")));
  WriteJson(results, activities, traces, reps, speedup_warm, snapshot_bytes,
            obs);

  fs::remove_all(cache_dir);
  std::remove(log1_path.c_str());
  std::remove(log2_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ems

int main(int argc, char** argv) { return ems::Main(argc, argv); }
