#include "inputs.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "eval/metrics.h"
#include "log/log_io.h"
#include "log/xes.h"
#include "store/hashing.h"
#include "synth/dataset.h"
#include "util/json_parser.h"
#include "util/random.h"

namespace perfbench {

using ems::Result;
using ems::Status;

Result<LedgerConfig> LoadLedgerConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  EMS_ASSIGN_OR_RETURN(ems::JsonValue doc, ems::ParseJson(text.str()));
  LedgerConfig config;
  config.lag_limit_ms = doc.GetNumber("lag_limit_ms", 0.0);
  const ems::JsonValue* workloads = doc.Find("workloads");
  if (workloads == nullptr || !workloads->is_object()) {
    return Status::InvalidArgument(path + " has no 'workloads' object");
  }
  for (const std::string& name : workloads->object_keys()) {
    const ems::JsonValue& w = *workloads->Find(name);
    WorkloadConfig c;
    c.name = name;
    c.format = w.GetString("format", "");
    c.pairs = w.GetInt("pairs", 0);
    c.min_activities = w.GetInt("min_activities", 0);
    c.max_activities = w.GetInt("max_activities", c.min_activities);
    c.traces = w.GetInt("traces", 0);
    c.composites = w.GetInt("composites", 0);
    c.corpus_seed = static_cast<uint64_t>(w.GetNumber("corpus_seed", 0.0));
    c.input_xxh64 = w.GetString("input_xxh64", "");
    c.tail_percentile = w.GetNumber("tail_percentile", 50.0);
    c.live_pairs = w.GetInt("live_pairs", 0);
    c.append_traces = w.GetInt("append_traces", 0);
    c.append_batches = w.GetInt("append_batches", 0);
    c.rate_per_s = w.GetNumber("rate_per_s", 0.0);
    c.zipf_s = w.GetNumber("zipf_s", 1.0);
    c.prob_share = w.GetNumber("prob_share", 0.0);
    c.append_share = w.GetNumber("append_share", 0.0);
    if ((c.format != "xes" && c.format != "trace") || c.pairs <= 0 ||
        c.min_activities <= 0 || c.max_activities < c.min_activities ||
        c.traces <= 0) {
      return Status::InvalidArgument("workload '" + name +
                                     "' has an invalid generator config");
    }
    config.workloads[name] = c;
  }
  return config;
}

namespace {

Status WriteLog(const ems::EventLog& log, const std::string& path,
                const std::string& format) {
  return format == "xes" ? ems::WriteXesFile(log, path)
                         : ems::WriteTraceFile(log, path);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Generates the pair `options` describe, writes both logs as
// <stem>_{a,b}.<ext>, and folds their bytes and truth links into
// `digest`.
Result<PairFiles> WritePair(const WorkloadConfig& config,
                            const ems::PairOptions& options,
                            const std::string& stem,
                            ems::store::FingerprintBuilder* digest) {
  ems::LogPair pair = ems::MakeLogPair(ems::Testbed::kDsFB, options);
  const std::string ext = config.format == "xes" ? ".xes" : ".txt";
  PairFiles files;
  files.log1 = stem + "_a" + ext;
  files.log2 = stem + "_b" + ext;
  files.truth = pair.truth;
  for (const auto& [log, path] :
       {std::pair{&pair.log1, files.log1}, std::pair{&pair.log2, files.log2}}) {
    EMS_RETURN_NOT_OK(WriteLog(*log, path, config.format));
    EMS_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
    files.bytes += bytes.size();
    digest->Add("file", ems::store::Hash64(bytes));
  }
  for (const auto& [left, right] : files.truth.Links()) {
    digest->Add("link", left + "\t" + right);
  }
  return files;
}

}  // namespace

Result<Inputs> GenerateInputs(const WorkloadConfig& config,
                              const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  Inputs inputs;
  ems::store::FingerprintBuilder digest;
  ems::Rng meta(config.corpus_seed);
  auto next_options = [&]() {
    ems::PairOptions options;
    options.num_activities =
        config.min_activities +
        static_cast<int>(meta.engine()() %
                         static_cast<uint64_t>(config.max_activities -
                                               config.min_activities + 1));
    options.num_traces = config.traces;
    options.num_composites = config.composites;
    options.seed = meta.engine()();
    return options;
  };
  for (int k = 0; k < config.pairs; ++k) {
    EMS_ASSIGN_OR_RETURN(
        PairFiles files,
        WritePair(config, next_options(), dir + "/pair" + std::to_string(k),
                  &digest));
    inputs.pairs.push_back(std::move(files));
  }
  for (int k = 0; k < config.live_pairs; ++k) {
    const ems::PairOptions options = next_options();
    EMS_ASSIGN_OR_RETURN(
        PairFiles files,
        WritePair(config, options, dir + "/live" + std::to_string(k),
                  &digest));
    inputs.live.push_back(std::move(files));
    std::vector<TraceBatch> batches;
    for (const ems::EventLog& batch : ems::MakeAppendBatches(
             options, config.append_traces, config.append_batches)) {
      TraceBatch traces;
      for (const ems::Trace& trace : batch.traces()) {
        std::vector<std::string> names;
        for (ems::EventId e : trace) {
          names.push_back(batch.EventName(e));
          digest.Add("event", names.back());
        }
        traces.push_back(std::move(names));
      }
      batches.push_back(std::move(traces));
    }
    inputs.append_batches.push_back(std::move(batches));
  }
  inputs.digest = digest.Finish();
  return inputs;
}

Result<double> FMeasureOfRendered(const std::string& rendered,
                                  const ems::GroundTruth& truth) {
  EMS_ASSIGN_OR_RETURN(ems::JsonValue doc, ems::ParseJson(rendered));
  const ems::JsonValue* list = doc.Find("correspondences");
  if (list == nullptr || !list->is_array()) {
    return Status::InvalidArgument("result has no correspondences");
  }
  std::set<std::pair<std::string, std::string>> found;
  for (const ems::JsonValue& c : list->array_items()) {
    const ems::JsonValue* left = c.Find("left");
    const ems::JsonValue* right = c.Find("right");
    if (left == nullptr || right == nullptr) {
      return Status::InvalidArgument("correspondence without sides");
    }
    for (const ems::JsonValue& l : left->array_items()) {
      for (const ems::JsonValue& r : right->array_items()) {
        found.emplace(l.string_value(), r.string_value());
      }
    }
  }
  return ems::EvaluateLinks(truth.Links(), found).f_measure;
}

}  // namespace perfbench
