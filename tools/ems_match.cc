// ems_match: command-line event matcher. Reads two event logs (XES, CSV,
// or trace-per-line format, auto-detected by extension), runs the full
// matching pipeline, and prints the correspondences.
//
//   ems_match [options] LOG1 LOG2
//   ems_match [options] --corpus=DIR --topk=K QUERY
//
// The second form ranks every log in DIR against QUERY and prints the
// top-k, scheduled through the corpus index (docs/CORPUS.md): candidates
// are ranked by an admissible score bound and exact matching stops once
// the k-th best exact score beats every remaining bound — same ranking
// as matching QUERY against every member, at a fraction of the runs.
// With --cache-dir the built index persists as a corpus snapshot, so
// re-querying an unchanged directory skips parsing and graph builds.
//
// The match options are the rows of src/serve/match_options_schema.cc,
// spelled as flags (the wire key with '_' replaced by '-'); the tool's
// own flags are the rows of kFlags below. Any usage error prints both
// tables and exits 2.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "core/match_report.h"
#include "core/matcher.h"
#include "exec/thread_pool.h"
#include "index/corpus_io.h"
#include "index/topk_scheduler.h"
#include "obs/context.h"
#include "obs/report.h"
#include "serve/log_cache.h"
#include "serve/match_options_schema.h"
#include "store/artifact_store.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace {

using namespace ems;
using enum OptionType;

struct Flags {
  std::string format;
  int threads;
  std::string corpus;
  int topk;
  bool brute_force;
  bool matrix;
  bool tsv;
  bool json;
  std::string prob_out;
  std::string metrics_out;
  std::string trace_out;
  std::string cache_dir;
  MatchOptions options;
  std::vector<std::string> positional;
};

#define FLAG(field) EMS_OPTION_FIELD(Flags, field)

const OptionSpec<Flags> kFlags[] = {
    {.key = "format", .type = kChoice, .choices = "auto|trace|csv|xes|mxml",
     .doc = "input format", FLAG(format)},
    ThreadsOption<Flags>(),
    {.key = "corpus", .type = kText, .choices = "DIR",
     .doc = "rank every log in DIR against QUERY", FLAG(corpus)},
    {.key = "topk", .type = kInteger, .fallback = 5, .min = 0,
     .doc = "hits to return", FLAG(topk)},
    {.key = "brute_force", .type = kFlag,
     .doc = "rank by matching every member", FLAG(brute_force)},
    {.key = "matrix", .type = kFlag, .doc = "also print the similarity matrix",
     FLAG(matrix)},
    {.key = "tsv", .type = kFlag, .doc = "TSV output", FLAG(tsv)},
    {.key = "json", .type = kFlag, .doc = "JSON output", FLAG(json)},
    {.key = "prob_out", .type = kText, .choices = "PATH",
     .doc = "full posterior as TSV (with --prob)", FLAG(prob_out)},
    {.key = "metrics_out", .type = kText, .choices = "PATH",
     .doc = "PipelineReport JSON", FLAG(metrics_out)},
    {.key = "trace_out", .type = kText, .choices = "PATH",
     .doc = "Chrome trace_event JSON", FLAG(trace_out)},
    {.key = "cache_dir", .type = kText, .choices = "PATH",
     .doc = "persistent artifact store", FLAG(cache_dir)},
};

#undef FLAG

std::string Usage(const char* argv0) {
  return std::string("usage: ") + argv0 + " [options] LOG1 LOG2\n       " +
         argv0 + " [options] --corpus=DIR [--topk=K] [--brute-force] QUERY\n" +
         "match options:\n" + serve::MatchOptionsUsage() + "tool options:\n" +
         OptionsUsage<Flags>(kFlags);
}

Result<Flags> ParseFlags(int argc, char** argv) {
  OptionParser<Flags> tool(kFlags);
  serve::MatchOptionsParser match;
  std::vector<std::string> positional;
  EMS_RETURN_NOT_OK(ParseArgs(argc, argv, &positional, tool, match));
  Flags flags = tool.target();
  flags.positional = std::move(positional);
  EMS_ASSIGN_OR_RETURN(flags.options, match.Finish());
  // EmsOptions spells serial 1, not 0.
  flags.options.ems.num_threads = std::max(flags.threads, 1);
  if (flags.corpus.empty()) {
    if (flags.positional.size() != 2) {
      return Status::InvalidArgument("expected exactly two log files");
    }
  } else if (flags.positional.size() != 1) {
    return Status::InvalidArgument(
        "--corpus mode expects exactly one query log");
  }
  return flags;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += " + ";
    out += names[i];
  }
  return out;
}

// Display name of real-node index `real_index` (composite members joined).
std::string RealNodeName(const DependencyGraph& g, const EventLog& log,
                         int real_index) {
  const NodeId off = g.has_artificial() ? 1 : 0;
  std::vector<std::string> names;
  for (EventId e : g.Members(real_index + off)) names.push_back(log.EventName(e));
  return JoinNames(names);
}

// Full posterior as TSV: one line per (row, col) cell with the node
// names, the posterior mass, and whether the MAP assignment picked the
// pair. scripts/check_posterior.py verifies row-stochasticity on this.
Status WritePosteriorTsv(const std::string& path, const MatchResult& result,
                         const EventLog& log1, const EventLog& log2) {
  const prob::SoftMatchResult& soft = *result.soft;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  std::fprintf(f, "# rows=%zu cols=%zu iterations=%d converged=%d\n",
               soft.posterior.rows(), soft.posterior.cols(),
               soft.stats.iterations, soft.stats.converged ? 1 : 0);
  std::fprintf(f, "row\tcol\tleft\tright\tposterior\tmap\n");
  for (size_t i = 0; i < soft.posterior.rows(); ++i) {
    const std::string left = RealNodeName(result.graph1, log1,
                                          static_cast<int>(i));
    for (size_t j = 0; j < soft.posterior.cols(); ++j) {
      const int map = i < soft.map_assignment.size() &&
                              soft.map_assignment[i] == static_cast<int>(j)
                          ? 1
                          : 0;
      std::fprintf(f, "%zu\t%zu\t%s\t%s\t%.17g\t%d\n", i, j, left.c_str(),
                   RealNodeName(result.graph2, log2, static_cast<int>(j))
                       .c_str(),
                   soft.posterior.at(static_cast<NodeId>(i),
                                     static_cast<NodeId>(j)),
                   map);
    }
  }
  std::fclose(f);
  return Status::OK();
}

int RunCorpusQuery(const Flags& flags, store::ArtifactStore* store,
                   ObsContext* obs) {
  MatchOptions match_options = flags.options;
  if (obs != nullptr) match_options.obs.context = obs;
  // Parallelism goes across candidates, not inside one EMS run.
  match_options.ems.num_threads = 1;

  index::CorpusLoadOptions load;
  load.format = flags.format;
  load.index.min_edge_frequency = match_options.min_edge_frequency;
  load.index.obs = obs;
  load.store = store;

  Timer build_timer;
  Result<index::CorpusIndex> corpus =
      index::LoadCorpusFromDirectory(flags.corpus, load);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error loading corpus %s: %s\n",
                 flags.corpus.c_str(), corpus.status().ToString().c_str());
    return 1;
  }
  const double build_millis = build_timer.ElapsedMillis();

  Result<EventLog> query = serve::LoadEventLogThroughStore(
      store, flags.positional[0], flags.format);
  if (!query.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", flags.positional[0].c_str(),
                 query.status().ToString().c_str());
    return 1;
  }

  exec::ThreadPool pool(std::max(flags.threads, 1));

  index::TopKOptions topk_options;
  topk_options.k = static_cast<size_t>(flags.topk);
  topk_options.match = match_options;
  topk_options.pool = &pool;
  topk_options.obs = obs;
  topk_options.force_brute_force = flags.brute_force;
  index::TopKScheduler scheduler(*corpus, topk_options);

  Timer query_timer;
  Result<std::vector<index::TopKHit>> hits = scheduler.Query(*query);
  const double query_millis = query_timer.ElapsedMillis();
  if (!hits.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 hits.status().ToString().c_str());
    return 1;
  }
  const index::TopKStats& stats = scheduler.stats();

  if (flags.json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("query");
    w.String(flags.positional[0]);
    w.Key("corpus");
    w.String(flags.corpus);
    w.Key("k");
    w.Int(flags.topk);
    w.Key("build_millis");
    w.Number(build_millis);
    w.Key("query_millis");
    w.Number(query_millis);
    w.Key("hits");
    w.BeginArray();
    for (size_t i = 0; i < hits->size(); ++i) {
      const index::TopKHit& hit = (*hits)[i];
      w.BeginObject();
      w.Key("member");
      w.String(hit.name);
      w.Key("rank");
      w.Int(static_cast<long long>(i + 1));
      w.Key("score");
      w.Number(hit.score);
      w.Key("bound");
      w.Number(hit.bound);
      w.Key("correspondences");
      w.Int(static_cast<long long>(hit.match.correspondences.size()));
      w.EndObject();
    }
    w.EndArray();
    w.Key("index");
    w.BeginObject();
    w.Key("candidates_retrieved");
    w.Int(static_cast<long long>(stats.candidates_retrieved));
    w.Key("pruned_by_bound");
    w.Int(static_cast<long long>(stats.pruned_by_bound));
    w.Key("exact_runs");
    w.Int(static_cast<long long>(stats.exact_runs));
    w.Key("aborted_runs");
    w.Int(static_cast<long long>(stats.aborted_runs));
    w.Key("brute_force");
    w.Bool(stats.used_brute_force);
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else if (flags.tsv) {
    std::printf("rank\tmember\tscore\n");
    for (size_t i = 0; i < hits->size(); ++i) {
      std::printf("%zu\t%s\t%.12f\n", i + 1, (*hits)[i].name.c_str(),
                  (*hits)[i].score);
    }
  } else {
    std::printf("corpus %s: %zu members (indexed in %.1f ms)\n",
                flags.corpus.c_str(), corpus->size(), build_millis);
    std::printf("top %d for %s:\n", flags.topk, flags.positional[0].c_str());
    for (size_t i = 0; i < hits->size(); ++i) {
      const index::TopKHit& hit = (*hits)[i];
      std::printf("  %2zu. %-48s score %.6f (%zu correspondences)\n", i + 1,
                  hit.name.c_str(), hit.score,
                  hit.match.correspondences.size());
    }
    if (stats.used_brute_force) {
      std::printf("\nbrute force: %llu exact runs in %.1f ms\n",
                  static_cast<unsigned long long>(stats.exact_runs),
                  query_millis);
    } else {
      std::printf("\nindex: %llu candidates, %llu pruned by bound, %llu "
                  "exact runs (%llu aborted) in %.1f ms\n",
                  static_cast<unsigned long long>(stats.candidates_retrieved),
                  static_cast<unsigned long long>(stats.pruned_by_bound),
                  static_cast<unsigned long long>(stats.exact_runs),
                  static_cast<unsigned long long>(stats.aborted_runs),
                  query_millis);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags_result = ParseFlags(argc, argv);
  if (!flags_result.ok()) {
    return UsageError(flags_result.status(), Usage(argv[0]));
  }
  const Flags& flags = *flags_result;

  const bool want_obs = !flags.metrics_out.empty() || !flags.trace_out.empty();
  ObsContext obs;

  std::optional<store::ArtifactStore> artifact_store;
  if (!flags.cache_dir.empty()) {
    store::ArtifactStoreOptions store_options;
    store_options.dir = flags.cache_dir;
    store_options.obs = want_obs ? &obs : nullptr;
    Result<store::ArtifactStore> opened =
        store::ArtifactStore::Open(std::move(store_options));
    if (opened.ok()) {
      artifact_store = std::move(opened).value();
    } else {
      std::fprintf(stderr, "warning: %s; running without cache\n",
                   opened.status().message().c_str());
    }
  }
  store::ArtifactStore* store_ptr =
      artifact_store.has_value() ? &*artifact_store : nullptr;

  if (!flags.corpus.empty()) {
    return RunCorpusQuery(flags, store_ptr, want_obs ? &obs : nullptr);
  }

  Result<EventLog> log1 = serve::LoadEventLogThroughStore(
      store_ptr, flags.positional[0], flags.format);
  if (!log1.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n",
                 flags.positional[0].c_str(),
                 log1.status().ToString().c_str());
    return 1;
  }
  Result<EventLog> log2 = serve::LoadEventLogThroughStore(
      store_ptr, flags.positional[1], flags.format);
  if (!log2.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n",
                 flags.positional[1].c_str(),
                 log2.status().ToString().c_str());
    return 1;
  }

  MatchOptions match_options = flags.options;
  if (want_obs) match_options.obs.context = &obs;

  Matcher matcher(match_options);
  Timer total_timer;
  Result<MatchResult> result = matcher.Match(*log1, *log2);
  const double total_millis = total_timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "matching failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (want_obs) {
    PipelineReport report =
        BuildPipelineReport(&obs, result->ems_stats, result->composite_stats,
                            total_millis);
    if (!flags.metrics_out.empty()) {
      Status st = report.WriteJsonFile(flags.metrics_out);
      if (!st.ok()) {
        std::fprintf(stderr, "error writing %s: %s\n",
                     flags.metrics_out.c_str(), st.ToString().c_str());
        return 1;
      }
    }
    if (!flags.trace_out.empty()) {
      Status st = report.WriteChromeTraceFile(flags.trace_out);
      if (!st.ok()) {
        std::fprintf(stderr, "error writing %s: %s\n",
                     flags.trace_out.c_str(), st.ToString().c_str());
        return 1;
      }
    }
  }

  // Posterior TSV export for external tooling (prob runs only).
  if (result->soft.has_value() && !flags.prob_out.empty()) {
    Status st = WritePosteriorTsv(flags.prob_out, *result, *log1, *log2);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", flags.prob_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  if (flags.json) {
    std::printf("%s\n", MatchResultToJson(*result).c_str());
  } else if (flags.tsv) {
    if (result->soft.has_value()) {
      std::printf("left\tright\tsimilarity\tconfidence\n");
      for (const Correspondence& c : result->correspondences) {
        std::printf("%s\t%s\t%.6f\t%.6f\n", JoinNames(c.events1).c_str(),
                    JoinNames(c.events2).c_str(), c.similarity, c.confidence);
      }
    } else {
      std::printf("left\tright\tsimilarity\n");
      for (const Correspondence& c : result->correspondences) {
        std::printf("%s\t%s\t%.6f\n", JoinNames(c.events1).c_str(),
                    JoinNames(c.events2).c_str(), c.similarity);
      }
    }
  } else {
    std::printf("%s: %zu events, %zu traces\n", flags.positional[0].c_str(),
                log1->NumEvents(), log1->NumTraces());
    std::printf("%s: %zu events, %zu traces\n\n", flags.positional[1].c_str(),
                log2->NumEvents(), log2->NumTraces());
    std::printf("correspondences:\n");
    for (const Correspondence& c : result->correspondences) {
      if (result->soft.has_value()) {
        std::printf("  %-40s <-> %-40s (%.3f, conf %.3f)\n",
                    JoinNames(c.events1).c_str(), JoinNames(c.events2).c_str(),
                    c.similarity, c.confidence);
      } else {
        std::printf("  %-40s <-> %-40s (%.3f)\n", JoinNames(c.events1).c_str(),
                    JoinNames(c.events2).c_str(), c.similarity);
      }
    }
    std::printf("\n%zu correspondences; EMS: %d iterations, %llu formula "
                "evaluations\n",
                result->correspondences.size(), result->ems_stats.iterations,
                static_cast<unsigned long long>(
                    result->ems_stats.formula_evaluations));
    if (result->soft.has_value()) {
      const prob::EmStats& em = result->soft->stats;
      std::printf("prob: %d EM iterations (%s, final delta %.2e), mean "
                  "posterior entropy %.3f\n",
                  em.iterations, em.converged ? "converged" : "iteration cap",
                  em.final_delta, em.mean_entropy);
    }
  }
  if (flags.matrix) {
    std::printf("\nsimilarity matrix:\n%s",
                result->similarity.DebugString(result->graph1, result->graph2)
                    .c_str());
  }
  return 0;
}
