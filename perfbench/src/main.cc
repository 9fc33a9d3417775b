// perfbench: the performance ledger's binary. Runs one workload of
// BENCHMARK.json for a seed and prints, as its last stdout line,
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Normally started through perfbench/run.py, which builds
// it first; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ledger perfbench/ledger.json] [--benchmark BENCHMARK.json]
//             [--data-dir .bench_build/data] [--trace-out PATH]
//
// Exits non-zero without a result when the build is not Release, the
// regenerated inputs differ from the digest pinned in ledger.json, an
// op cannot run, or a metric BENCHMARK.json lists is missing.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "store/hashing.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using ems::Result;
using ems::Status;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string ledger = "perfbench/ledger.json";
  std::string benchmark = "BENCHMARK.json";
  std::string data_dir = ".bench_build/data";
  std::string trace_out;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--ledger") {
      args.ledger = value;
    } else if (flag == "--benchmark") {
      args.benchmark = value;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Status::InvalidArgument("unknown option " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    return Status::InvalidArgument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return args;
}

Result<std::string> ReadText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

Result<RunResult> Run(const Args& args) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return Status::InvalidArgument("refusing to report from a " +
                                   std::string(PERFBENCH_BUILD_TYPE) +
                                   " build; configure with Release");
  }
  EMS_ASSIGN_OR_RETURN(LedgerConfig ledger, LoadLedgerConfig(args.ledger));
  auto it = ledger.workloads.find(args.workload);
  if (it == ledger.workloads.end()) {
    return Status::NotFound("no workload '" + args.workload + "' in " +
                            args.ledger);
  }
  const WorkloadConfig& config = it->second;
  EMS_ASSIGN_OR_RETURN(std::string benchmark, ReadText(args.benchmark));
  EMS_ASSIGN_OR_RETURN(
      auto listed,
      ListedMetrics(benchmark, args.trace == 1 ? "per_layer" : "end_to_end"));

  RunSettings settings;
  settings.seed = args.seed;
  settings.seconds = args.seconds;
  settings.trace = args.trace == 1;
  settings.nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  settings.data_dir = args.data_dir + "/" + config.name;
  settings.trace_out = args.trace_out;
  settings.lag_limit_ms = ledger.lag_limit_ms;

  EMS_ASSIGN_OR_RETURN(Inputs inputs,
                       GenerateInputs(config, settings.data_dir + "/inputs"));
  const std::string digest = ems::store::HashHex(inputs.digest);
  if (digest != config.input_xxh64) {
    return Status::InvalidArgument(
        "regenerated inputs of '" + config.name + "' have XXH64 " + digest +
        ", but " + args.ledger + " pins '" + config.input_xxh64 +
        "': the generator changed, so this run is not comparable");
  }
  std::printf(
      "# perfbench workload=%s seed=%llu trace=%d git_sha=%s compiler=\"%s\" "
      "build_type=%s nproc=%d input_xxh64=%s\n",
      config.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, ems::bench::BenchGitSha(),
      ems::bench::BenchCompiler().c_str(), PERFBENCH_BUILD_TYPE,
      settings.nproc, digest.c_str());
  std::fflush(stdout);

  const bool serve = config.live_pairs > 0;
  EMS_ASSIGN_OR_RETURN(RunResult result,
                       serve ? RunServeWorkload(config, inputs, settings)
                             : RunBatchWorkload(config, inputs, settings));
  if (result.attempted == 0) return Status::Internal("no op attempted");
  if (!settings.trace) {
    result.metrics["ok_ratio"] = {
        static_cast<double>(result.attempted - result.failed) /
            static_cast<double>(result.attempted),
        "ratio"};
    // A workload whose memory grows with the ops a run gets through
    // reports it at a fixed point of its own.
    if (result.metrics.count("peak_rss_mb") == 0) {
      result.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    }
  }
  EMS_RETURN_NOT_OK(CheckCoverage(listed, result.metrics));
  if (result.failed > 0) result.correct = false;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Result<RunResult> result = Run(*args);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  ems::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(result->correct);
  w.Key("attempted");
  w.Int(static_cast<long long>(result->attempted));
  w.Key("failed");
  w.Int(static_cast<long long>(result->failed));
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, metric] : result->metrics) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Number(metric.value);
    w.Key("unit");
    w.String(metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
