// Concurrent batch matching service: newline-delimited JSON requests
// in, one JSON response line per request out. Jobs are scheduled on a
// ThreadPool behind an LRU log cache, so a stream of thousands of
// matchings (the paper's Section-7 evaluation regime, warehouse
// reconciliation sweeps) parses each log once and saturates every core.
//
// A line is parsed once (ParseRequest) into a typed Request and
// dispatched on its keys: `cmd` makes it an admin command or, with
// "cmd": "append", a streaming append (docs/STREAMING.md); `query` makes
// it a top-k corpus query (docs/CORPUS.md); anything else is a match job
// over `log1` and `log2`. Besides its envelope keys (id, log1, log2,
// format; query, topk, members, corpus, brute_force; cmd, traces and the
// delta-file path on appends) a job line may carry only the rows of
// serve/match_options_schema.h. Responses and their shapes are in
// docs/CONCURRENCY.md; results are emitted in completion order, so
// clients correlate by id.
//
// Admin commands are answered inline — never queued behind match jobs —
// so a saturated service still reports: {"cmd": "stats"} (metrics
// snapshot with latency quantiles and interval rates), {"cmd": "health"}
// (liveness, queue depth), {"cmd": "slow"} (flight-recorder span trees of
// the slowest and most recently failed requests).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/matcher.h"
#include "exec/cancellation.h"
#include "exec/thread_pool.h"
#include "index/corpus_index.h"
#include "index/topk_scheduler.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_snapshot.h"
#include "serve/log_cache.h"
#include "serve/stream_session.h"
#include "store/artifact_store.h"
#include "util/timer.h"

namespace ems {

struct ObsContext;
class JsonWriter;

namespace serve {

/// Service configuration.
struct ServiceOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serve jobs serially.
  int threads = 0;

  /// Bounded job queue; a client streaming faster than the pool drains
  /// blocks here (backpressure) instead of growing memory.
  size_t queue_capacity = 256;

  /// LRU capacity of the parsed-log cache, in logs.
  size_t cache_capacity = 64;

  /// Byte budget of the parsed-log cache (estimated snapshot bytes of
  /// resident logs); 0 keeps the entry-count bound alone.
  size_t cache_byte_budget = 0;

  /// Directory of the persistent artifact store (docs/PERSISTENCE.md);
  /// empty disables persistence. A restarted service with the same
  /// directory starts warm: the first job per log loads its snapshot
  /// instead of re-parsing the source file. An unusable directory is
  /// tolerated — the service runs without persistence.
  std::string cache_dir;

  /// Byte budget of the on-disk store (LRU file eviction); 0 = unbounded.
  uint64_t cache_dir_bytes = 0;

  /// Observability sink for serve.*, store.*, and exec.pool.* metrics
  /// (borrowed). When null and `telemetry` is true (the default), the
  /// service owns a private ObsContext so the stats/health/slow admin
  /// commands always have live data.
  ObsContext* obs = nullptr;

  /// Master switch for the telemetry plane. False runs the service bare
  /// (no owned context, no per-job tracing, no flight recorder) — the
  /// pre-telemetry behavior, kept measurable for bench_serve_obs.
  bool telemetry = true;

  /// Flight-recorder retention: the N slowest and the N most recently
  /// failed requests, each with its span tree.
  size_t flight_slow_capacity = 16;
  size_t flight_failed_capacity = 16;
};

/// A parsed match job.
struct JobRequest {
  std::string id;
  std::string log1;
  std::string log2;
  std::string format = "auto";
  MatchOptions options;
};

/// A parsed top-k corpus query. Exactly one of `members` / `corpus` is
/// set.
struct TopKRequest {
  std::string id;
  std::string query;                 // the query log's path
  std::string format = "auto";
  size_t k = 5;
  std::vector<std::string> members;  // explicit member paths, in rank
                                     // tie-break order
  std::string corpus;                // or: a corpus directory
  bool brute_force = false;          // baseline scan (tests, CI checks)
  MatchOptions options;
};

enum class RequestKind { kMatch, kTopK, kAppend, kAdmin };

/// One wire line, parsed once and dispatched by kind. `id` is the
/// client's id even when `status` reports the line invalid, so every
/// error response can carry it; `body` holds the typed request of a
/// valid match, top-k or append line.
struct Request {
  RequestKind kind = RequestKind::kMatch;
  std::string id;
  std::string cmd;  // the admin command (kAdmin)
  Status status;
  std::variant<JobRequest, TopKRequest, AppendRequest> body;
};

/// Parses one NDJSON line. Never fails: an unparseable or invalid line
/// yields a Request whose `status` says why (ParseError for bytes that
/// are not JSON, InvalidArgument otherwise).
Request ParseRequest(std::string_view line);

/// A match job line (ParseError/InvalidArgument on malformed input).
Result<JobRequest> ParseJobRequest(std::string_view line);

/// A top-k query line.
Result<TopKRequest> ParseTopKRequest(std::string_view line);

/// The status:"error" response line of request `id`.
std::string RenderError(const std::string& id, const Status& status);

/// Opens an admin response object {"id", "status": "ok", "cmd"}; the
/// caller writes the command's members and closes it.
void BeginAdminResponse(JsonWriter* w, const std::string& id,
                        const char* cmd);

/// One member of a ranked top-k response.
struct RankedMember {
  std::string member;
  double score = 0.0;
  size_t correspondences = 0;
};

/// The ok response line of a top-k query. Scores also travel as their
/// exact IEEE-754 bits ("score_bits", hex), which is what lets the
/// sharded router merge per-shard rankings losslessly; `shards` is
/// written when >= 0 (the router's merged response).
std::string RenderTopK(const std::string& id, double millis, size_t k,
                       int shards, const std::vector<RankedMember>& hits,
                       const index::TopKStats& stats);

/// \brief The batch matching service.
///
/// HandleJobLine is the pure per-job path (parse -> load via cache ->
/// match -> render), safe to call from any thread; RunStream drives it
/// concurrently from an NDJSON stream. Results are emitted in
/// completion order — clients correlate by id.
class BatchMatchService {
 public:
  explicit BatchMatchService(const ServiceOptions& options);
  ~BatchMatchService();  // out of line: ObsContext is incomplete here

  /// Processes one job or admin line synchronously and returns the
  /// result line (without trailing newline). Never fails: malformed
  /// requests render as status:"error" results.
  std::string HandleJobLine(const std::string& line);

  /// HandleJobLine for an already parsed line (the sharded router's
  /// entry: it parses each line once and hands shards the Request).
  std::string HandleRequest(Request request);

  /// Reads lines from `in` until EOF, schedules match jobs on the pool,
  /// and writes one result line per job to `out` as jobs complete.
  /// Admin-command lines ({"cmd": ...}) are answered inline from the
  /// reader thread — a full queue never blocks a stats or health probe.
  /// Returns the number of lines processed (jobs plus admin commands).
  size_t RunStream(std::istream& in, std::ostream& out);

  /// Cooperatively stops a running RunStream: no further lines are
  /// scheduled and queued jobs report Cancelled results.
  void Cancel() { cancel_.Cancel(); }

  LogCache& cache() { return cache_; }
  exec::ThreadPool& pool() { return pool_; }

  /// Live streaming-ingestion sessions (docs/STREAMING.md).
  StreamSessionManager& stream_sessions() { return stream_sessions_; }

  /// The persistent artifact store, or null when `cache_dir` was empty
  /// or unusable.
  store::ArtifactStore* artifact_store() {
    return store_.has_value() ? &*store_ : nullptr;
  }

  /// The effective telemetry context: the caller's, the owned one, or
  /// null when `telemetry` was disabled without a caller context.
  ObsContext* obs() { return options_.obs; }

  /// The slow/failed request retention, or null when telemetry is off.
  FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Seconds since the service was constructed.
  double UptimeSeconds() const { return uptime_.ElapsedSeconds(); }

  /// Jobs currently inside RunJob (racy snapshot; the sharded
  /// router reads this for per-shard health).
  int64_t jobs_in_flight() const {
    return jobs_in_flight_.load(std::memory_order_relaxed);
  }

  /// The configured bounded-queue capacity (admission headroom).
  size_t queue_capacity() const { return options_.queue_capacity; }

  /// Renders one admin response (the `{"cmd": ...}` path of
  /// HandleJobLine, exposed for direct calls): "stats", "health", or
  /// "slow". Unknown commands render as status:"error".
  std::string HandleAdminCommand(const std::string& cmd,
                                 const std::string& id);

 private:
  std::string RenderStats(const std::string& id);
  std::string RenderHealth(const std::string& id);
  std::string RenderSlow(const std::string& id);
  // What a job body sees of its envelope (RunJob).
  struct Job {
    const std::string& id;  // the client's id or an assigned req-N
    ObsContext* obs;        // the per-job trace context, or null
    const Timer& timer;     // started when the job was submitted
  };
  using JobBody = std::function<Result<std::string>(const Job&)>;

  /// The envelope every job runs in: submission counters and the
  /// in-flight gauge, the request id, the per-job trace and span, the
  /// cancellation check, error rendering, and the completion metrics,
  /// flight record and failure log. `body` renders the ok response.
  std::string RunJob(const Request& request, const JobBody& body);
  Result<std::string> RunMatch(JobRequest& request, const Job& job);
  Result<std::string> RunTopK(TopKRequest& request, const Job& job);
  Result<std::string> RunAppend(const AppendRequest& request, const Job& job);

  /// Refreshes cached corpus indexes containing `path` after an append:
  /// the member is re-added from `log` (the session's appended state) so
  /// top-k queries rank against the stream, not the stale file.
  void RefreshCorpusMember(const std::string& path, const EventLog& log,
                           const std::string& format);

  /// The corpus index for `members` (in order), built with the request's
  /// min_edge_frequency — from the in-process cache when the member
  /// files are unchanged, else through the artifact store
  /// (index::LoadCorpusFromFiles). Keys include member content hashes,
  /// so a rewritten member rebuilds, never serves stale.
  Result<std::shared_ptr<const index::CorpusIndex>> GetOrBuildCorpus(
      const std::vector<std::string>& members, const std::string& format,
      const MatchOptions& options);

  std::unique_ptr<ObsContext> owned_obs_;  // set before options_
  ServiceOptions options_;
  exec::ThreadPool pool_;
  std::optional<store::ArtifactStore> store_;  // must outlive cache_
  LogCache cache_;
  StreamSessionManager stream_sessions_;  // after store_: borrows it
  exec::CancellationSource cancel_;
  std::unique_ptr<FlightRecorder> flight_;
  Timer uptime_;
  std::atomic<uint64_t> next_request_seq_{1};
  std::atomic<int64_t> jobs_in_flight_{0};

  // Consecutive {"cmd":"stats"} calls report interval rates.
  IntervalStats interval_stats_;

  // Tiny MRU cache of built corpus indexes (shared so concurrent top-k
  // jobs read one immutable index). An index over a 1k-member corpus is
  // expensive to build and cheap to keep; a handful covers the working
  // set of corpora one deployment serves.
  struct CorpusCacheEntry {
    std::string key;  // content hash + options fingerprint
    std::shared_ptr<const index::CorpusIndex> index;
  };
  static constexpr size_t kCorpusCacheCapacity = 4;
  std::mutex corpus_mu_;
  std::vector<CorpusCacheEntry> corpus_cache_;  // MRU at the back
};

}  // namespace serve
}  // namespace ems
