// ems_generate: synthetic heterogeneous log-pair generator — exports the
// corpus this repository evaluates on so external tools (ProM, PM4Py,
// other matchers) can be compared on identical inputs.
//
//   ems_generate [options] OUTPUT_DIR
//
// The options are the rows of kFlags below; a usage error prints them.
//
// Each pair becomes <dir>/pairK_a.<ext>, <dir>/pairK_b.<ext>, and
// <dir>/pairK_truth.tsv (left<TAB>right per correspondence link); with
// --append also <dir>/pairK_a_append<j>.<ext> per batch, ready to feed
// the serve layer's {"cmd": "append"} as `delta` files
// (docs/STREAMING.md).
#include <cstdio>
#include <fstream>
#include <string>

#include "log/log_io.h"
#include "log/mxml.h"
#include "log/xes.h"
#include "synth/dataset.h"
#include "util/flags.h"

namespace {

using namespace ems;
using enum OptionType;

Status ExportLog(const EventLog& log, const std::string& path,
                 const std::string& format) {
  if (format == "xes") return WriteXesFile(log, path + ".xes");
  if (format == "mxml") return WriteMxmlFile(log, path + ".mxml");
  if (format == "csv") {
    std::ofstream out(path + ".csv");
    if (!out) return Status::IOError("cannot open " + path + ".csv");
    return WriteCsv(log, out);
  }
  if (format == "trace") return WriteTraceFile(log, path + ".txt");
  return Status::InvalidArgument("unknown format '" + format + "'");
}

Status ExportTruth(const GroundTruth& truth, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << "left\tright\n";
  for (const auto& [l, r] : truth.Links()) {
    out << l << '\t' << r << '\n';
  }
  return out ? Status::OK() : Status::IOError("write failed");
}

struct Flags {
  int pairs;
  int corpus;
  int family_size;
  Testbed testbed;
  int activities;
  int traces;
  int dislocation;
  int composites;
  int append;
  int append_batches;
  uint64_t seed;
  std::string format;
};

#define FLAG(field) EMS_OPTION_FIELD(Flags, field)

const OptionSpec<Flags> kFlags[] = {
    {.key = "pairs", .type = kInteger, .fallback = 10, .min = 0,
     .doc = "log pairs to generate", FLAG(pairs)},
    {.key = "corpus", .type = kInteger, .min = 0,
     .doc = "generate an N-member warehouse corpus instead of pairs "
            "(docs/CORPUS.md), written as <dir>/famK_<m>.<ext>",
     FLAG(corpus)},
    {.key = "family_size", .type = kInteger, .fallback = 2, .min = 1,
     .doc = "members per corpus family", FLAG(family_size)},
    {.key = "testbed", .type = kChoice, .fallback = 2,
     .choices = "dsf|dsb|dsfb", .doc = "dislocation testbed", FLAG(testbed)},
    {.key = "activities", .type = kInteger, .fallback = 20, .min = 1,
     .doc = "activities per process", FLAG(activities)},
    {.key = "traces", .type = kInteger, .fallback = 150, .min = 1,
     .doc = "traces per log", FLAG(traces)},
    {.key = "dislocation", .type = kInteger, .fallback = 2, .min = 0,
     .doc = "events removed from trace boundaries", FLAG(dislocation)},
    {.key = "composites", .type = kInteger, .min = 0,
     .doc = "composite events injected per pair", FLAG(composites)},
    {.key = "append", .type = kInteger, .min = 0,
     .doc = "traces per streaming delta batch (0: no batches); continues "
            "log a's own play-out",
     FLAG(append)},
    {.key = "append_batches", .type = kInteger, .fallback = 1, .min = 1,
     .doc = "delta batches per pair", FLAG(append_batches)},
    {.key = "seed", .type = kInteger, .fallback = 2014, .min = 0,
     .doc = "master seed", FLAG(seed)},
    {.key = "format", .type = kChoice, .choices = "xes|mxml|csv|trace",
     .doc = "export format", FLAG(format)},
};

#undef FLAG

}  // namespace

int main(int argc, char** argv) {
  OptionParser<Flags> parser(kFlags);
  std::vector<std::string> positional;
  Status parsed = ParseArgs(argc, argv, &positional, parser);
  if (parsed.ok() && positional.size() != 1) {
    parsed = Status::InvalidArgument("expected one OUTPUT_DIR");
  }
  if (!parsed.ok()) {
    return UsageError(parsed, argv[0], "[options] OUTPUT_DIR", parser);
  }
  const Flags& flags = parser.target();
  const std::string& dir = positional[0];

  if (flags.corpus > 0) {
    SynthCorpusOptions corpus_opts;
    corpus_opts.num_members = flags.corpus;
    corpus_opts.members_per_family = flags.family_size;
    corpus_opts.seed = flags.seed;
    corpus_opts.min_activities = std::max(4, flags.activities - 5);
    corpus_opts.max_activities = flags.activities + 5;
    corpus_opts.num_traces = flags.traces;
    std::vector<CorpusMember> members = MakeCorpus(corpus_opts);
    for (const CorpusMember& member : members) {
      Status s = ExportLog(member.log, dir + "/" + member.name, flags.format);
      if (!s.ok()) {
        std::fprintf(stderr, "export failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const int families =
        members.empty() ? 0 : members.back().family + 1;
    std::printf("generated a %zu-member corpus (%d families, ~%d members "
                "each, %d traces) in %s\n",
                members.size(), families, flags.family_size, flags.traces,
                dir.c_str());
    return 0;
  }

  Rng meta(flags.seed);
  for (int k = 0; k < flags.pairs; ++k) {
    PairOptions opts;
    opts.num_activities = flags.activities;
    opts.num_traces = flags.traces;
    opts.dislocation = flags.dislocation;
    opts.num_composites = flags.composites;
    opts.seed = meta.engine()();
    LogPair pair = MakeLogPair(flags.testbed, opts);

    std::string base = dir + "/pair" + std::to_string(k);
    Status s = ExportLog(pair.log1, base + "_a", flags.format);
    if (s.ok()) s = ExportLog(pair.log2, base + "_b", flags.format);
    if (s.ok()) s = ExportTruth(pair.truth, base + "_truth.tsv");
    if (s.ok() && flags.append > 0) {
      std::vector<EventLog> batches =
          MakeAppendBatches(opts, flags.append, flags.append_batches);
      for (size_t j = 0; j < batches.size() && s.ok(); ++j) {
        s = ExportLog(batches[j], base + "_a_append" + std::to_string(j),
                      flags.format);
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "export failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("generated %d %s pairs (%d activities, %d traces, "
              "dislocation %d, %d composites%s) in %s\n",
              flags.pairs, TestbedName(flags.testbed), flags.activities,
              flags.traces, flags.dislocation, flags.composites,
              flags.append > 0
                  ? (", " + std::to_string(flags.append_batches) + "x" +
                     std::to_string(flags.append) + "-trace append batches")
                        .c_str()
                  : "",
              dir.c_str());
  return 0;
}
