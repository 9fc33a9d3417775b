// ems_stats: event-log inspection — summary counters, the most frequent
// trace variants, per-event frequencies, and (optionally) the dependency
// graph as Graphviz DOT.
//
//   ems_stats [options] LOG
//
// The options are the rows of kFlags below; a usage error prints them.
// With --cache-dir the parsed log is snapshotted into the persistent
// artifact store (docs/PERSISTENCE.md) and re-runs load the snapshot
// instead of re-parsing.
#include <cstdio>
#include <optional>
#include <string>

#include "graph/dot_export.h"
#include "log/log_filter.h"
#include "log/log_stats.h"
#include "serve/log_cache.h"
#include "store/artifact_store.h"
#include "util/flags.h"
#include "util/string_util.h"

using namespace ems;
using enum OptionType;

namespace {

struct Flags {
  std::string format;
  size_t variants;
  bool dot;
  std::string cache_dir;
};

const OptionSpec<Flags> kFlags[] = {
    {.key = "format", .type = kChoice, .choices = "auto|trace|csv|xes|mxml",
     .doc = "input format", EMS_OPTION_FIELD(Flags, format)},
    {.key = "variants", .type = kInteger, .fallback = 5, .min = 0,
     .doc = "most frequent trace variants to list",
     EMS_OPTION_FIELD(Flags, variants)},
    {.key = "dot", .type = kFlag,
     .doc = "also print the dependency graph as Graphviz DOT",
     EMS_OPTION_FIELD(Flags, dot)},
    {.key = "cache_dir", .type = kText, .choices = "PATH",
     .doc = "persistent artifact store", EMS_OPTION_FIELD(Flags, cache_dir)},
};

}  // namespace

int main(int argc, char** argv) {
  OptionParser<Flags> parser(kFlags);
  std::vector<std::string> positional;
  Status parsed = ParseArgs(argc, argv, &positional, parser);
  if (parsed.ok() && positional.size() != 1) {
    parsed = Status::InvalidArgument("expected one LOG");
  }
  if (!parsed.ok()) {
    return UsageError(parsed, argv[0], "[options] LOG", parser);
  }
  const Flags& flags = parser.target();
  const std::string& path = positional[0];

  std::optional<store::ArtifactStore> artifact_store;
  if (!flags.cache_dir.empty()) {
    store::ArtifactStoreOptions store_options;
    store_options.dir = flags.cache_dir;
    Result<store::ArtifactStore> opened =
        store::ArtifactStore::Open(std::move(store_options));
    if (opened.ok()) {
      artifact_store = std::move(opened).value();
    } else {
      std::fprintf(stderr, "warning: %s; running without cache\n",
                   opened.status().message().c_str());
    }
  }

  Result<EventLog> log = serve::LoadEventLogThroughStore(
      artifact_store.has_value() ? &*artifact_store : nullptr, path,
      flags.format);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s\n", log.status().ToString().c_str());
    return 1;
  }

  LogSummary s = Summarize(*log);
  std::printf("%s\n", path.c_str());
  std::printf("  traces:            %zu\n", s.num_traces);
  std::printf("  distinct events:   %zu\n", s.num_events);
  std::printf("  occurrences:       %zu\n", s.total_occurrences);
  std::printf("  trace variants:    %zu\n", s.num_variants);
  std::printf("  trace length:      min %zu / mean %.1f / max %zu\n",
              s.min_trace_length, s.mean_trace_length, s.max_trace_length);

  LogStats stats(*log);
  std::printf("\nevent frequencies (fraction of traces):\n");
  for (EventId e = 0; e < static_cast<EventId>(log->NumEvents()); ++e) {
    std::printf("  %-40s %.3f\n", log->EventName(e).c_str(),
                stats.EventFrequency(e));
  }

  std::vector<TraceVariant> variants = TraceVariants(*log);
  std::printf("\ntop trace variants:\n");
  for (size_t i = 0; i < std::min(flags.variants, variants.size()); ++i) {
    std::printf("  %4zux  %s\n", variants[i].count,
                Join(variants[i].activities, " -> ").c_str());
  }

  if (flags.dot) {
    DependencyGraph g = DependencyGraph::Build(*log);
    std::printf("\n%s", ToDot(g).c_str());
  }
  return 0;
}
