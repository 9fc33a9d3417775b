#include "serve/service.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <span>

#include "exec/parallel.h"
#include "index/corpus_io.h"
#include "index/topk_scheduler.h"
#include "obs/context.h"
#include "serve/match_options_schema.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/log.h"
#include "util/timer.h"

namespace ems {
namespace serve {

namespace {

exec::ThreadPoolOptions PoolOptions(const ServiceOptions& options) {
  exec::ThreadPoolOptions pool;
  pool.num_threads = options.threads;
  pool.queue_capacity = options.queue_capacity;
  pool.obs = options.obs;
  return pool;
}

void WriteNames(JsonWriter* w, const std::vector<std::string>& names) {
  w->BeginArray();
  for (const std::string& n : names) w->String(n);
  w->EndArray();
}

std::string RenderResult(const std::string& id, const MatchResult& result,
                         double millis) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("millis");
  w.Number(millis);
  w.Key("correspondences");
  w.BeginArray();
  for (const Correspondence& c : result.correspondences) {
    w.BeginObject();
    w.Key("left");
    WriteNames(&w, c.events1);
    w.Key("right");
    WriteNames(&w, c.events2);
    w.Key("similarity");
    w.Number(c.similarity);
    // Calibrated confidence exists only on prob jobs; omitting the key
    // otherwise keeps non-prob responses byte-identical to older builds.
    if (result.soft.has_value()) {
      w.Key("confidence");
      w.Number(c.confidence);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("ems");
  w.BeginObject();
  w.Key("iterations");
  w.Int(result.ems_stats.iterations);
  w.Key("formula_evaluations");
  w.Int(static_cast<long long>(result.ems_stats.formula_evaluations +
                               result.composite_stats.formula_evaluations));
  w.EndObject();
  if (result.soft.has_value()) {
    const prob::EmStats& em = result.soft->stats;
    w.Key("prob");
    w.BeginObject();
    w.Key("iterations");
    w.Int(em.iterations);
    w.Key("converged");
    w.Bool(em.converged);
    w.Key("final_delta");
    w.Number(em.final_delta);
    w.Key("mean_entropy");
    w.Number(em.mean_entropy);
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

// Service-wide prob.* rollup (the per-job obs context the engine writes
// into is private to the request and discarded with it).
void RecordProbMetrics(ObsContext* obs, const MatchResult& result) {
  if (obs == nullptr || !result.soft.has_value()) return;
  ObsIncrement(obs, "prob.runs");
  ObsIncrement(obs, "prob.iterations",
               static_cast<uint64_t>(result.soft->stats.iterations));
  if (result.soft->stats.converged) ObsIncrement(obs, "prob.converged_runs");
  for (double h : result.soft->row_entropy) {
    ObsObserveQuantile(obs, "prob.posterior_entropy", h);
  }
}

// An append result is a match result plus the streaming report: what the
// batch changed and what the warm start saved.
std::string RenderAppendResult(const std::string& id,
                               const StreamAppendOutcome& outcome,
                               double millis) {
  std::string base = RenderResult(id, outcome.match, millis);
  // Splice the "stream" object before the closing brace of the match
  // rendering, keeping the two renderers from drifting apart.
  base.pop_back();  // '}'
  JsonWriter w;
  w.BeginObject();
  w.Key("appended_traces");
  w.Int(static_cast<long long>(outcome.graph_stats.appended_traces));
  w.Key("total_traces");
  w.Int(static_cast<long long>(outcome.total_traces));
  w.Key("new_events");
  w.Int(static_cast<long long>(outcome.new_events));
  w.Key("new_nodes");
  w.Int(static_cast<long long>(outcome.graph_stats.new_nodes));
  w.Key("added_edges");
  w.Int(static_cast<long long>(outcome.graph_stats.added_edges));
  w.Key("removed_edges");
  w.Int(static_cast<long long>(outcome.graph_stats.removed_edges));
  w.Key("distance_rows_invalidated");
  w.Int(static_cast<long long>(
      outcome.graph_stats.distance_rows_invalidated));
  w.Key("warm");
  w.Bool(outcome.match_stats.warm);
  w.Key("iterations");
  w.Int(outcome.match_stats.iterations);
  w.Key("iterations_saved");
  w.Int(outcome.match_stats.iterations_saved);
  w.Key("session_created");
  w.Bool(outcome.session_created);
  w.Key("resumed_from_store");
  w.Bool(outcome.resumed_from_store);
  w.EndObject();
  return base + ",\"stream\":" + w.str() + "}";
}

// The exact IEEE-754 bits of a score, as a hex string. JSON numbers pass
// through the parser as double, so a 64-bit integer would lose its low
// bits on the way back in; a string round-trips exactly, which is what
// lets the sharded router merge per-shard rankings losslessly.
std::string ScoreBitsHex(double score) {
  static_assert(sizeof(unsigned long long) == sizeof(double),
                "bit-cast width");
  unsigned long long bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", bits);
  return buf;
}

// The envelope keys of each request kind. Every other key of a job line
// must be a row of the options schema; on append lines `delta` names the
// delta file (streaming sessions take no composite threshold).
bool IsEnvelopeKey(RequestKind kind, std::string_view key) {
  static constexpr std::string_view kMatch[] = {"id", "log1", "log2",
                                                "format"};
  static constexpr std::string_view kTopK[] = {
      "id", "query", "topk", "members", "corpus", "brute_force", "format"};
  static constexpr std::string_view kAppend[] = {
      "id", "cmd", "log1", "log2", "format", "traces", "delta"};
  static constexpr std::string_view kAdmin[] = {"id", "cmd"};
  std::span<const std::string_view> keys = kMatch;
  if (kind == RequestKind::kTopK) keys = kTopK;
  if (kind == RequestKind::kAppend) keys = kAppend;
  if (kind == RequestKind::kAdmin) keys = kAdmin;
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

// Reads string member `key` into *out when present.
Status ReadString(const JsonValue& doc, std::string_view key,
                  std::string* out) {
  const JsonValue* value = doc.Find(key);
  if (value == nullptr) return Status::OK();
  if (!value->is_string()) {
    return Status::InvalidArgument("'" + std::string(key) +
                                   "' must be a string");
  }
  *out = value->string_value();
  return Status::OK();
}

// The client's id: a string, or an integer rendered in decimal.
Status ReadId(const JsonValue& doc, std::string* id) {
  const JsonValue* value = doc.Find("id");
  if (value == nullptr) return Status::OK();
  if (value->is_string()) {
    *id = value->string_value();
    return Status::OK();
  }
  const double number = value->number_value();
  if (!value->is_number() || std::floor(number) != number ||
      std::fabs(number) > 1e15) {
    return Status::InvalidArgument("'id' must be a string or an integer");
  }
  *id = std::to_string(static_cast<long long>(number));
  return Status::OK();
}

Status ReadPair(const JsonValue& doc, std::string* log1, std::string* log2,
                std::string* format) {
  EMS_RETURN_NOT_OK(ReadString(doc, "log1", log1));
  EMS_RETURN_NOT_OK(ReadString(doc, "log2", log2));
  EMS_RETURN_NOT_OK(ReadString(doc, "format", format));
  if (log1->empty() || log2->empty()) {
    return Status::InvalidArgument("job needs 'log1' and 'log2' paths");
  }
  return Status::OK();
}

Status ReadTraces(const JsonValue& doc,
                  std::vector<std::vector<std::string>>* out) {
  const JsonValue* traces = doc.Find("traces");
  if (traces == nullptr) return Status::OK();
  if (!traces->is_array()) {
    return Status::InvalidArgument(
        "'traces' must be an array of arrays of event names");
  }
  for (const JsonValue& trace : traces->array_items()) {
    if (!trace.is_array()) {
      return Status::InvalidArgument("each appended trace must be an array");
    }
    std::vector<std::string> names;
    names.reserve(trace.array_items().size());
    for (const JsonValue& event : trace.array_items()) {
      if (!event.is_string()) {
        return Status::InvalidArgument("trace events must be strings");
      }
      names.push_back(event.string_value());
    }
    out->push_back(std::move(names));
  }
  return Status::OK();
}

Status ReadTopK(const JsonValue& doc, TopKRequest* request) {
  EMS_RETURN_NOT_OK(ReadString(doc, "query", &request->query));
  if (request->query.empty()) {
    return Status::InvalidArgument("topk request needs a 'query' log path");
  }
  if (const JsonValue* k = doc.Find("topk")) {
    const double n = k->number_value();
    if (!k->is_number() || std::floor(n) != n || n < 0 || n > INT_MAX) {
      return Status::InvalidArgument("'topk' must be an integer >= 0");
    }
    request->k = static_cast<size_t>(n);
  }
  const JsonValue* members = doc.Find("members");
  EMS_RETURN_NOT_OK(ReadString(doc, "corpus", &request->corpus));
  if ((members != nullptr) == !request->corpus.empty()) {
    return Status::InvalidArgument(
        "topk request needs exactly one of 'members' or 'corpus'");
  }
  if (members != nullptr) {
    if (!members->is_array() || members->array_items().empty()) {
      return Status::InvalidArgument(
          "'members' must be a non-empty array of log paths");
    }
    for (const JsonValue& item : members->array_items()) {
      if (!item.is_string() || item.string_value().empty()) {
        return Status::InvalidArgument("'members' entries must be paths");
      }
      request->members.push_back(item.string_value());
    }
  }
  EMS_RETURN_NOT_OK(ReadString(doc, "format", &request->format));
  if (const JsonValue* brute = doc.Find("brute_force")) {
    if (!brute->is_bool()) {
      return Status::InvalidArgument("'brute_force' must be true or false");
    }
    request->brute_force = brute->bool_value();
  }
  return Status::OK();
}

// Fills `request` from a parsed line; the id and kind are set before
// anything is validated, so a failure still knows both.
Status ReadRequest(const JsonValue& doc, Request* request) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  EMS_RETURN_NOT_OK(ReadId(doc, &request->id));
  if (const JsonValue* cmd = doc.Find("cmd")) {
    request->kind = RequestKind::kAdmin;
    if (!cmd->is_string()) {
      return Status::InvalidArgument("'cmd' must be a string");
    }
    request->cmd = cmd->string_value();
    if (request->cmd == "append") request->kind = RequestKind::kAppend;
  } else if (doc.Find("query") != nullptr) {
    request->kind = RequestKind::kTopK;
  }

  MatchOptionsParser parser;
  for (const std::string& key : doc.object_keys()) {
    if (IsEnvelopeKey(request->kind, key)) continue;
    const MatchOptionSpec* spec = request->kind == RequestKind::kAdmin
                                      ? nullptr
                                      : FindMatchOption(key);
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown key '" + key + "'");
    }
    EMS_RETURN_NOT_OK(parser.SetJson(*spec, *doc.Find(key)));
  }
  if (request->kind == RequestKind::kAdmin) return Status::OK();
  EMS_ASSIGN_OR_RETURN(MatchOptions options, parser.Finish());

  if (request->kind == RequestKind::kTopK) {
    TopKRequest topk;
    EMS_RETURN_NOT_OK(ReadTopK(doc, &topk));
    topk.id = request->id;
    topk.options = options;
    request->body = std::move(topk);
  } else if (request->kind == RequestKind::kAppend) {
    AppendRequest append;
    EMS_RETURN_NOT_OK(
        ReadPair(doc, &append.log1, &append.log2, &append.format));
    EMS_RETURN_NOT_OK(ReadString(doc, "delta", &append.delta));
    EMS_RETURN_NOT_OK(ReadTraces(doc, &append.traces));
    append.id = request->id;
    append.options = options;
    request->body = std::move(append);
  } else {
    JobRequest job;
    EMS_RETURN_NOT_OK(ReadPair(doc, &job.log1, &job.log2, &job.format));
    job.id = request->id;
    job.options = options;
    request->body = std::move(job);
  }
  return Status::OK();
}

template <typename T>
Result<T> ParseRequestAs(std::string_view line, RequestKind kind) {
  Request request = ParseRequest(line);
  if (!request.status.ok()) return request.status;
  if (request.kind != kind) {
    return Status::InvalidArgument("not a line of the expected kind");
  }
  return std::get<T>(std::move(request.body));
}

}  // namespace

Request ParseRequest(std::string_view line) {
  Request request;
  Result<JsonValue> doc = ParseJson(line);
  request.status = doc.ok() ? ReadRequest(*doc, &request) : doc.status();
  return request;
}

Result<JobRequest> ParseJobRequest(std::string_view line) {
  return ParseRequestAs<JobRequest>(line, RequestKind::kMatch);
}

Result<TopKRequest> ParseTopKRequest(std::string_view line) {
  return ParseRequestAs<TopKRequest>(line, RequestKind::kTopK);
}

std::string RenderError(const std::string& id, const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("error");
  w.Key("code");
  w.String(StatusCodeToString(status.code()));
  w.Key("error");
  w.String(status.message());
  w.EndObject();
  return w.str();
}

void BeginAdminResponse(JsonWriter* w, const std::string& id,
                        const char* cmd) {
  w->BeginObject();
  w->Key("id");
  w->String(id);
  w->Key("status");
  w->String("ok");
  w->Key("cmd");
  w->String(cmd);
}

std::string RenderTopK(const std::string& id, double millis, size_t k,
                       int shards, const std::vector<RankedMember>& hits,
                       const index::TopKStats& stats) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("millis");
  w.Number(millis);
  w.Key("k");
  w.Int(static_cast<long long>(k));
  if (shards >= 0) {
    w.Key("shards");
    w.Int(shards);
  }
  w.Key("hits");
  w.BeginArray();
  for (size_t i = 0; i < hits.size(); ++i) {
    w.BeginObject();
    w.Key("member");
    w.String(hits[i].member);
    w.Key("rank");
    w.Int(static_cast<long long>(i + 1));
    w.Key("score");
    w.Number(hits[i].score);
    w.Key("score_bits");
    w.String(ScoreBitsHex(hits[i].score));
    w.Key("correspondences");
    w.Int(static_cast<long long>(hits[i].correspondences));
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
  return w.str();
}

namespace {

std::optional<store::ArtifactStore> OpenStore(const ServiceOptions& options) {
  if (options.cache_dir.empty()) return std::nullopt;
  store::ArtifactStoreOptions store_options;
  store_options.dir = options.cache_dir;
  store_options.max_bytes = options.cache_dir_bytes;
  store_options.obs = options.obs;
  Result<store::ArtifactStore> opened =
      store::ArtifactStore::Open(std::move(store_options));
  if (!opened.ok()) {
    // An unusable cache directory must not take the service down; it
    // just runs cold.
    ObsIncrement(options.obs, "store.open_errors");
    LogWarn("cache directory unusable, serving cold: " +
            opened.status().message());
    return std::nullopt;
  }
  return std::move(opened).value();
}

ServiceOptions WithEffectiveObs(const ServiceOptions& options,
                                ObsContext* owned) {
  ServiceOptions effective = options;
  if (effective.obs == nullptr) effective.obs = owned;
  return effective;
}

}  // namespace

BatchMatchService::BatchMatchService(const ServiceOptions& options)
    : owned_obs_(options.obs == nullptr && options.telemetry
                     ? std::make_unique<ObsContext>()
                     : nullptr),
      options_(WithEffectiveObs(options, owned_obs_.get())),
      pool_(PoolOptions(options_)),
      store_(OpenStore(options_)),
      cache_(options_.cache_capacity, options_.obs, artifact_store(),
             options_.cache_byte_budget),
      stream_sessions_(artifact_store(), options_.obs),
      flight_(options_.telemetry
                  ? std::make_unique<FlightRecorder>(
                        options_.flight_slow_capacity,
                        options_.flight_failed_capacity)
                  : nullptr) {}

BatchMatchService::~BatchMatchService() = default;

std::string BatchMatchService::HandleJobLine(const std::string& line) {
  return HandleRequest(ParseRequest(line));
}

std::string BatchMatchService::HandleRequest(Request request) {
  if (request.kind == RequestKind::kAdmin) {
    return request.status.ok() ? HandleAdminCommand(request.cmd, request.id)
                               : RenderError(request.id, request.status);
  }
  return RunJob(request, [&](const Job& job) -> Result<std::string> {
    switch (request.kind) {
      case RequestKind::kTopK:
        return RunTopK(std::get<TopKRequest>(request.body), job);
      case RequestKind::kAppend:
        return RunAppend(std::get<AppendRequest>(request.body), job);
      default:
        return RunMatch(std::get<JobRequest>(request.body), job);
    }
  });
}

Result<std::shared_ptr<const index::CorpusIndex>>
BatchMatchService::GetOrBuildCorpus(const std::vector<std::string>& members,
                                    const std::string& format,
                                    const MatchOptions& options) {
  index::CorpusLoadOptions load;
  load.format = format;
  load.index.min_edge_frequency = options.min_edge_frequency;
  load.index.obs = options_.obs;
  load.store = artifact_store();

  EMS_ASSIGN_OR_RETURN(store::ArtifactKey key,
                       index::CorpusKeyForFiles(members, load));
  const std::string cache_key = std::to_string(key.content_hash) + "/" +
                                std::to_string(key.fingerprint);
  {
    std::lock_guard<std::mutex> lock(corpus_mu_);
    for (size_t i = 0; i < corpus_cache_.size(); ++i) {
      if (corpus_cache_[i].key != cache_key) continue;
      CorpusCacheEntry hit = corpus_cache_[i];
      corpus_cache_.erase(corpus_cache_.begin() + static_cast<long>(i));
      corpus_cache_.push_back(hit);
      ObsIncrement(options_.obs, "serve.corpus_cache.hits");
      return hit.index;
    }
  }
  ObsIncrement(options_.obs, "serve.corpus_cache.misses");

  // Built outside the lock: concurrent first queries may build twice,
  // which wastes work but never correctness — both builds are identical.
  EMS_ASSIGN_OR_RETURN(index::CorpusIndex built,
                       index::LoadCorpusFromFiles(members, load));
  auto shared =
      std::make_shared<const index::CorpusIndex>(std::move(built));
  {
    std::lock_guard<std::mutex> lock(corpus_mu_);
    corpus_cache_.push_back(CorpusCacheEntry{cache_key, shared});
    if (corpus_cache_.size() > kCorpusCacheCapacity) {
      corpus_cache_.erase(corpus_cache_.begin());
    }
  }
  return shared;
}

namespace {

// What distinguishes the job kinds inside the shared envelope.
struct JobKind {
  const char* span_prefix;  // the per-job root span: prefix + request id
  const char* log_name;     // the failure log line's first word
  const char* counter;      // the per-kind submission counter, if any
};

const JobKind& JobKindOf(RequestKind kind) {
  static const JobKind kMatch{"request:", "job", nullptr};
  static const JobKind kTopK{"topk:", "topk", "serve.topk_jobs"};
  static const JobKind kAppend{"append:", "append", "serve.append_jobs"};
  if (kind == RequestKind::kTopK) return kTopK;
  if (kind == RequestKind::kAppend) return kAppend;
  return kMatch;
}

}  // namespace

std::string BatchMatchService::RunJob(const Request& request,
                                      const JobBody& body) {
  const JobKind& kind = JobKindOf(request.kind);
  ObsIncrement(options_.obs, "serve.jobs_submitted");
  if (kind.counter != nullptr) ObsIncrement(options_.obs, kind.counter);
  jobs_in_flight_.fetch_add(1, std::memory_order_relaxed);
  Timer timer;

  // Every job gets a request id — the client's, or an assigned req-N —
  // propagated into the job's span tree and the flight recorder.
  const std::string id =
      !request.id.empty()
          ? request.id
          : "req-" + std::to_string(next_request_seq_.fetch_add(
                         1, std::memory_order_relaxed));

  // The per-job trace is private to the request (the shared registry
  // would interleave concurrent jobs); its span snapshot lands in the
  // flight recorder at completion.
  std::unique_ptr<ObsContext> job_obs;
  if (flight_ != nullptr) job_obs = std::make_unique<ObsContext>();
  ScopedSpan request_span(job_obs.get(), kind.span_prefix + id);

  Result<std::string> rendered =
      !request.status.ok() ? Result<std::string>(request.status)
      : cancel_.cancelled()
          ? Result<std::string>(Status::Cancelled("service shutting down"))
          : body(Job{id, job_obs.get(), timer});
  const Status failure = rendered.ok() ? Status::OK() : rendered.status();
  std::string response =
      rendered.ok() ? std::move(rendered).value() : RenderError(id, failure);
  request_span.End();

  const double millis = timer.ElapsedMillis();
  const bool ok = failure.ok();
  ObsIncrement(options_.obs, ok ? "serve.jobs_ok" : "serve.jobs_failed");
  ObsObserve(options_.obs, "serve.job_millis", millis);
  // Per-outcome latency quantiles: the stats command's p50/p90/p99.
  ObsObserveQuantile(options_.obs,
                     ok ? "serve.latency_ms.ok" : "serve.latency_ms.error",
                     millis);
  if (flight_ != nullptr) {
    FlightRecord record;
    record.request_id = id;
    record.outcome = ok ? "ok" : "error";
    record.error = failure.message();
    record.millis = millis;
    record.spans = job_obs->trace.Snapshot();
    flight_->Record(std::move(record));
  }
  if (!ok && LogEnabled(LogLevel::kInfo)) {
    LogInfo(std::string(kind.log_name) + " " + id +
            " failed: " + failure.message());
  }
  jobs_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return response;
}

Result<std::string> BatchMatchService::RunMatch(JobRequest& request,
                                                const Job& job) {
  request.options.obs.context = job.obs;
  // A live streaming session covering this pair is authoritative: its
  // in-memory log carries appended traces the on-disk file (and hence
  // the parsed-log cache) never sees. Consulting it FIRST is what keeps
  // an append-then-match sequence from serving a stale parse.
  std::optional<Result<StreamMatchOutcome>> session_match =
      stream_sessions_.TryMatch(request, job.obs);
  if (session_match.has_value()) {
    if (!session_match->ok()) return session_match->status();
    std::string rendered = RenderResult(job.id, (*session_match)->match,
                                        job.timer.ElapsedMillis());
    RecordProbMetrics(options_.obs, (*session_match)->match);
    return rendered;
  }
  ScopedSpan load_span(job.obs, "load_logs");
  EMS_ASSIGN_OR_RETURN(std::shared_ptr<const EventLog> log1,
                       cache_.GetOrLoad(request.log1, request.format));
  EMS_ASSIGN_OR_RETURN(std::shared_ptr<const EventLog> log2,
                       cache_.GetOrLoad(request.log2, request.format));
  load_span.End();
  // Jobs parallelize across the pool, so each matching runs
  // single-threaded inside its worker (nested ParallelFor on the same
  // pool would degrade to inline execution anyway).
  Matcher matcher(request.options);
  EMS_ASSIGN_OR_RETURN(MatchResult result, matcher.Match(*log1, *log2));
  std::string rendered =
      RenderResult(job.id, result, job.timer.ElapsedMillis());
  RecordProbMetrics(options_.obs, result);
  return rendered;
}

Result<std::string> BatchMatchService::RunTopK(TopKRequest& request,
                                               const Job& job) {
  request.options.obs.context = job.obs;
  std::vector<std::string> members = request.members;
  if (!request.corpus.empty()) {
    EMS_ASSIGN_OR_RETURN(members, index::ListCorpusFiles(request.corpus));
  }
  ScopedSpan build_span(job.obs, "build_corpus");
  Result<std::shared_ptr<const index::CorpusIndex>> corpus =
      GetOrBuildCorpus(members, request.format, request.options);
  build_span.End();
  if (!corpus.ok()) return corpus.status();
  EMS_ASSIGN_OR_RETURN(std::shared_ptr<const EventLog> query,
                       cache_.GetOrLoad(request.query, request.format));
  index::TopKOptions opts;
  opts.k = request.k;
  opts.match = request.options;
  // Candidate evaluations fan out on the service pool; when this job
  // itself runs on a pool worker (RunStream, shard pools) the nested
  // group degrades to serial inside the worker, which is exactly the
  // per-job parallelism budget match jobs get.
  opts.pool = &pool_;
  opts.obs = options_.obs;  // index.* aggregates service-wide
  opts.force_brute_force = request.brute_force;
  index::TopKScheduler scheduler(**corpus, opts);
  EMS_ASSIGN_OR_RETURN(std::vector<index::TopKHit> hits,
                       scheduler.Query(*query));
  std::vector<RankedMember> ranked;
  for (const index::TopKHit& hit : hits) {
    ranked.push_back({hit.name, hit.score, hit.match.correspondences.size()});
  }
  return RenderTopK(job.id, job.timer.ElapsedMillis(), request.k,
                    /*shards=*/-1, ranked, scheduler.stats());
}

Result<std::string> BatchMatchService::RunAppend(
    const AppendRequest& request, const Job& job) {
  EMS_ASSIGN_OR_RETURN(StreamAppendOutcome outcome,
                       stream_sessions_.Append(request, job.obs));
  std::string rendered =
      RenderAppendResult(job.id, outcome, job.timer.ElapsedMillis());
  RecordProbMetrics(options_.obs, outcome.match);
  if (outcome.graph_stats.appended_traces > 0) {
    RefreshCorpusMember(request.log1, outcome.log_snapshot, request.format);
  }
  return rendered;
}

void BatchMatchService::RefreshCorpusMember(const std::string& path,
                                            const EventLog& log,
                                            const std::string& format) {
  const std::string canon = CanonicalPath(path);
  std::lock_guard<std::mutex> lock(corpus_mu_);
  for (CorpusCacheEntry& cached : corpus_cache_) {
    int member = -1;
    for (size_t i = 0; i < cached.index->size(); ++i) {
      const index::CorpusEntry& entry = cached.index->entry(i);
      const std::string& source =
          entry.source_path.empty() ? entry.name : entry.source_path;
      if (CanonicalPath(source) == canon) {
        member = static_cast<int>(i);
        break;
      }
    }
    if (member < 0) continue;
    // Copy-on-write: concurrent top-k jobs keep reading the old immutable
    // index; the cache entry flips to the refreshed copy when done.
    const index::CorpusEntry stale = cached.index->entry(member);
    index::CorpusIndex refreshed = *cached.index;
    if (!refreshed.Remove(stale.name).ok()) continue;
    if (!refreshed
             .Add(stale.name, log, stale.source_path, stale.content_hash,
                  stale.format.empty() ? format : stale.format)
             .ok()) {
      continue;
    }
    cached.index =
        std::make_shared<const index::CorpusIndex>(std::move(refreshed));
    ObsIncrement(options_.obs, "stream.corpus_refreshes");
  }
}

std::string BatchMatchService::HandleAdminCommand(const std::string& cmd,
                                                  const std::string& id) {
  ObsIncrement(options_.obs, "serve.admin_commands");
  if (cmd == "stats") return RenderStats(id);
  if (cmd == "health") return RenderHealth(id);
  if (cmd == "slow") return RenderSlow(id);
  return RenderError(id,
                     Status::InvalidArgument(
                         "unknown cmd '" + cmd + "' (stats|health|slow)"));
}

std::string BatchMatchService::RenderStats(const std::string& id) {
  JsonWriter w;
  BeginAdminResponse(&w, id, "stats");
  w.Key("uptime_seconds");
  w.Number(UptimeSeconds());
  if (options_.obs != nullptr) {
    interval_stats_.WriteJson(options_.obs->metrics, &w);
  }
  w.Key("cache");
  w.BeginObject();
  w.Key("entries");
  w.Int(static_cast<long long>(cache_.size()));
  w.Key("bytes");
  w.Int(static_cast<long long>(cache_.cost_bytes()));
  w.Key("hits");
  w.Int(static_cast<long long>(cache_.hits()));
  w.Key("misses");
  w.Int(static_cast<long long>(cache_.misses()));
  w.EndObject();
  w.Key("pool");
  w.BeginObject();
  w.Key("threads");
  w.Int(pool_.num_threads());
  w.Key("queue_depth");
  w.Int(static_cast<long long>(pool_.QueueDepth()));
  w.Key("queue_capacity");
  w.Int(static_cast<long long>(options_.queue_capacity));
  w.Key("jobs_in_flight");
  w.Int(jobs_in_flight_.load(std::memory_order_relaxed));
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string BatchMatchService::RenderHealth(const std::string& id) {
  const size_t depth = pool_.QueueDepth();
  JsonWriter w;
  BeginAdminResponse(&w, id, "health");
  w.Key("healthy");
  w.Bool(!cancel_.cancelled());
  w.Key("draining");
  w.Bool(cancel_.cancelled());
  w.Key("uptime_seconds");
  w.Number(UptimeSeconds());
  w.Key("queue_depth");
  w.Int(static_cast<long long>(depth));
  w.Key("queue_capacity");
  w.Int(static_cast<long long>(options_.queue_capacity));
  w.Key("threads");
  w.Int(pool_.num_threads());
  w.Key("jobs_in_flight");
  w.Int(jobs_in_flight_.load(std::memory_order_relaxed));
  w.EndObject();
  return w.str();
}

std::string BatchMatchService::RenderSlow(const std::string& id) {
  JsonWriter w;
  BeginAdminResponse(&w, id, "slow");
  w.Key("flight_recorder");
  if (flight_ != nullptr) {
    flight_->WriteJson(&w);
  } else {
    w.Null();
  }
  w.EndObject();
  return w.str();
}

size_t BatchMatchService::RunStream(std::istream& in, std::ostream& out) {
  std::mutex out_mu;
  size_t lines = 0;
  exec::TaskGroup group(&pool_, cancel_.token());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (cancel_.cancelled()) break;
    ++lines;
    // Admin probes answer from the reader thread: a queue full of match
    // jobs must never delay a stats/health scrape. Appends are real work
    // (parse, graph maintenance, a warm match) and schedule on the pool
    // like any job.
    Request request = ParseRequest(line);
    if (request.kind == RequestKind::kAdmin) {
      std::string result = HandleRequest(std::move(request));
      std::lock_guard<std::mutex> lock(out_mu);
      out << result << "\n";
      out.flush();
      continue;
    }
    group.Run([this, &out, &out_mu,
               request = std::move(request)]() mutable -> Status {
      std::string result = HandleRequest(std::move(request));
      std::lock_guard<std::mutex> lock(out_mu);
      out << result << "\n";
      out.flush();
      return Status::OK();
    });
  }
  (void)group.Wait();
  return lines;
}

}  // namespace serve
}  // namespace ems
