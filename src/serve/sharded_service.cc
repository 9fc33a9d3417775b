#include "serve/sharded_service.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <unordered_map>
#include <utility>

#include "index/corpus_io.h"
#include "obs/context.h"
#include "serve/log_cache.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/log.h"

namespace ems {
namespace serve {

namespace {

// A request shed at the boundary: status "draining" or "overloaded",
// with the shard that shed it (omitted when a fan-out was refused before
// choosing one).
std::string RenderShed(const std::string& id, const char* status, int shard,
                       const std::string& error) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String(status);
  if (shard >= 0) {
    w.Key("shard");
    w.Int(shard);
  }
  w.Key("error");
  w.String(error);
  w.EndObject();
  return w.str();
}

std::string RenderDraining(const std::string& id, int shard) {
  return RenderShed(id, "draining", shard,
                    "service is draining; resubmit elsewhere");
}

std::string RenderOverloaded(const std::string& id, int shard,
                             size_t max_inflight) {
  return RenderShed(id, "overloaded", shard,
                    "shard " + std::to_string(shard) +
                        " at admission capacity (" +
                        std::to_string(max_inflight) + " jobs in flight)");
}

double ScoreFromBits(const std::string& hex) {
  const unsigned long long bits = std::strtoull(hex.c_str(), nullptr, 16);
  double score = 0.0;
  std::memcpy(&score, &bits, sizeof(score));
  return score;
}

}  // namespace

// One worker shard: a full BatchMatchService slice plus the router-side
// admission state and pre-resolved per-shard instruments.
struct ShardedMatchService::Shard {
  int index = 0;
  std::unique_ptr<BatchMatchService> service;
  std::atomic<int64_t> inflight{0};
  size_t max_inflight = 0;

  // serve.shard.<i>.* instruments; null when telemetry is off.
  Counter* routed = nullptr;
  Counter* rejected_overloaded = nullptr;
  Counter* rejected_draining = nullptr;
  Gauge* inflight_gauge = nullptr;
  Gauge* queue_depth_gauge = nullptr;
};

ShardedMatchService::ShardedMatchService(const ShardedServiceOptions& options)
    : owned_obs_(options.obs == nullptr && options.telemetry
                     ? std::make_unique<ObsContext>()
                     : nullptr),
      options_([&] {
        ShardedServiceOptions effective = options;
        if (effective.num_shards < 1) effective.num_shards = 1;
        if (effective.obs == nullptr) effective.obs = owned_obs_.get();
        return effective;
      }()),
      ring_(net::HashRingOptions{options_.num_shards,
                                 options_.vnodes_per_shard}) {
  const int total =
      exec::ThreadPool::EffectiveThreads(options_.total_threads);
  const int per_shard = std::max(1, total / options_.num_shards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;

    ServiceOptions shard_options;
    shard_options.threads = per_shard;
    shard_options.queue_capacity = options_.shard_queue_capacity;
    shard_options.cache_capacity = options_.cache_capacity;
    shard_options.cache_byte_budget = options_.cache_byte_budget;
    if (!options_.cache_dir.empty()) {
      // Consistent placement makes disk caches shard-local: the keys a
      // shard serves are the keys whose snapshots live in its directory,
      // and a resize only re-derives the ~1/N that actually moved.
      shard_options.cache_dir =
          options_.cache_dir + "/shard-" + std::to_string(i);
    }
    shard_options.cache_dir_bytes = options_.cache_dir_bytes;
    shard_options.obs = options_.obs;  // shared: serve.* totals aggregate
    shard_options.telemetry = options_.telemetry;
    shard_options.flight_slow_capacity = options_.flight_slow_capacity;
    shard_options.flight_failed_capacity = options_.flight_failed_capacity;
    shard->service = std::make_unique<BatchMatchService>(shard_options);

    shard->max_inflight =
        options_.max_inflight_per_shard != 0
            ? options_.max_inflight_per_shard
            : options_.shard_queue_capacity + static_cast<size_t>(per_shard);
    if (options_.obs != nullptr) {
      MetricsRegistry& metrics = options_.obs->metrics;
      shard->routed =
          metrics.GetCounter(ShardMetricName("serve.shard", i, "routed"));
      shard->rejected_overloaded = metrics.GetCounter(
          ShardMetricName("serve.shard", i, "rejected_overloaded"));
      shard->rejected_draining = metrics.GetCounter(
          ShardMetricName("serve.shard", i, "rejected_draining"));
      shard->inflight_gauge =
          metrics.GetGauge(ShardMetricName("serve.shard", i, "inflight"));
      shard->queue_depth_gauge =
          metrics.GetGauge(ShardMetricName("serve.shard", i, "queue_depth"));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedMatchService::~ShardedMatchService() {
  Drain();
  WaitDrained();
}

BatchMatchService& ShardedMatchService::shard_service(int i) {
  return *shards_[static_cast<size_t>(i)]->service;
}

int64_t ShardedMatchService::shard_inflight(int i) const {
  return shards_[static_cast<size_t>(i)]->inflight.load(
      std::memory_order_relaxed);
}

int ShardedMatchService::ShardForPath(const std::string& path) const {
  return ring_.ShardFor(CanonicalPath(path));
}

void ShardedMatchService::HandleLine(const std::string& line,
                                     net::EmitFn emit) {
  Request request = ParseRequest(line);
  if (!request.status.ok()) {
    // Invalid lines have no routing key: answered inline through shard
    // 0's envelope so they get the same error shape as the single
    // service. Only bytes that are not JSON count as protocol errors.
    if (request.status.IsParseError()) {
      ObsIncrement(options_.obs, "net.protocol_errors");
    }
    emit(shards_[0]->service->HandleRequest(std::move(request)));
    return;
  }
  if (request.kind == RequestKind::kAdmin) {
    emit(HandleAdmin(request.cmd, request.id));
    return;
  }
  if (request.kind == RequestKind::kTopK) {
    HandleTopK(std::move(request), emit);
    return;
  }

  // Match and append lines route to the shard owning log1 — the same
  // shard for every job over a pair, which is what keeps each streaming
  // session on exactly one shard.
  const std::string& log1 =
      request.kind == RequestKind::kAppend
          ? std::get<AppendRequest>(request.body).log1
          : std::get<JobRequest>(request.body).log1;
  Shard& shard = *shards_[ring_.ShardFor(CanonicalPath(log1))];
  if (shard.routed != nullptr) shard.routed->Increment();

  if (draining()) {
    if (shard.rejected_draining != nullptr) {
      shard.rejected_draining->Increment();
    }
    ObsIncrement(options_.obs, "net.jobs_rejected_draining");
    emit(RenderDraining(request.id, shard.index));
    return;
  }

  // Admission control at the network boundary: a bounded inflight budget
  // per shard, shedding with an explicit response instead of buffering.
  const std::string id = request.id;
  const int64_t admitted =
      shard.inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
  bool accepted = admitted <= static_cast<int64_t>(shard.max_inflight);
  if (accepted) {
    accepted = shard.service->pool().TrySubmit(
        [this, &shard, request = std::move(request), emit]() mutable {
          emit(shard.service->HandleRequest(std::move(request)));
          FinishShardJob(shard);
        });
  }
  if (!accepted) {
    shard.inflight.fetch_sub(1, std::memory_order_acq_rel);
    if (shard.rejected_overloaded != nullptr) {
      shard.rejected_overloaded->Increment();
    }
    ObsIncrement(options_.obs, "net.jobs_rejected_overloaded");
    emit(RenderOverloaded(id, shard.index, shard.max_inflight));
    return;
  }
  if (shard.inflight_gauge != nullptr) {
    shard.inflight_gauge->Set(static_cast<double>(admitted));
  }
  if (shard.queue_depth_gauge != nullptr) {
    shard.queue_depth_gauge->Set(
        static_cast<double>(shard.service->pool().QueueDepth()));
  }
}

void ShardedMatchService::FinishShardJob(Shard& shard) {
  // Decrement and notify under the drain mutex: WaitDrained's predicate
  // re-check cannot miss the final completion, and once it has seen zero
  // no finishing job touches drain_mu_/drain_cv_ again, so the router
  // may be destroyed (the shard and its pool outlive them).
  int64_t now = 0;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    now = shard.inflight.fetch_sub(1, std::memory_order_acq_rel) - 1;
    drain_cv_.notify_all();
  }
  if (shard.inflight_gauge != nullptr) {
    shard.inflight_gauge->Set(static_cast<double>(now));
  }
  if (shard.queue_depth_gauge != nullptr) {
    shard.queue_depth_gauge->Set(
        static_cast<double>(shard.service->pool().QueueDepth()));
  }
}

// Shared state of one fanned-out top-k query: per-shard responses land
// in their slot; the last completion merges and emits.
struct ShardedMatchService::TopKAggregate {
  std::mutex mu;
  size_t remaining = 0;
  std::vector<std::string> responses;  // one slot per involved shard
  std::string id;
  size_t k = 5;
  size_t shards_involved = 0;
  // Member path -> position in the resolved full member list: the merge
  // tie-breaker that reproduces the single service's index order.
  std::unordered_map<std::string, size_t> global_index;
  net::EmitFn emit;
  Timer timer;
};

void ShardedMatchService::HandleTopK(Request request,
                                     const net::EmitFn& emit) {
  const TopKRequest& topk = std::get<TopKRequest>(request.body);
  // Resolve the full member list router-side: both the partition and the
  // merge tie-break need the same order the single service would use.
  std::vector<std::string> members = topk.members;
  if (!topk.corpus.empty()) {
    Result<std::vector<std::string>> listed =
        index::ListCorpusFiles(topk.corpus);
    if (!listed.ok()) {
      emit(RenderError(request.id, listed.status()));
      return;
    }
    members = *std::move(listed);
  }

  if (draining()) {
    ObsIncrement(options_.obs, "net.jobs_rejected_draining");
    emit(RenderDraining(request.id, /*shard=*/-1));
    return;
  }

  std::vector<std::vector<std::string>> shard_members(shards_.size());
  auto aggregate = std::make_shared<TopKAggregate>();
  aggregate->id = request.id;
  aggregate->k = topk.k;
  aggregate->emit = emit;
  for (size_t g = 0; g < members.size(); ++g) {
    aggregate->global_index.emplace(members[g], g);
    const int s = ring_.ShardFor(CanonicalPath(members[g]));
    shard_members[static_cast<size_t>(s)].push_back(members[g]);
  }
  std::vector<int> involved;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shard_members[s].empty()) involved.push_back(static_cast<int>(s));
  }

  // All-or-nothing admission: reserve an inflight slot on every involved
  // shard, rolling back on the first full one — a partially admitted
  // fan-out would hold slots while unable to answer.
  for (size_t i = 0; i < involved.size(); ++i) {
    Shard& shard = *shards_[static_cast<size_t>(involved[i])];
    if (shard.routed != nullptr) shard.routed->Increment();
    const int64_t admitted =
        shard.inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (admitted <= static_cast<int64_t>(shard.max_inflight)) continue;
    shard.inflight.fetch_sub(1, std::memory_order_acq_rel);
    for (size_t j = 0; j < i; ++j) {
      shards_[static_cast<size_t>(involved[j])]->inflight.fetch_sub(
          1, std::memory_order_acq_rel);
    }
    if (shard.rejected_overloaded != nullptr) {
      shard.rejected_overloaded->Increment();
    }
    ObsIncrement(options_.obs, "net.jobs_rejected_overloaded");
    emit(RenderOverloaded(request.id, shard.index, shard.max_inflight));
    return;
  }

  aggregate->remaining = involved.size();
  aggregate->shards_involved = involved.size();
  aggregate->responses.resize(involved.size());
  for (size_t i = 0; i < involved.size(); ++i) {
    Shard* shard = shards_[static_cast<size_t>(involved[i])].get();
    // Each shard gets the parsed query itself — every option included —
    // narrowed to the members it owns.
    Request sub = request;
    TopKRequest& sub_topk = std::get<TopKRequest>(sub.body);
    sub_topk.members =
        std::move(shard_members[static_cast<size_t>(involved[i])]);
    sub_topk.corpus.clear();
    auto run = [this, shard, aggregate, i, sub = std::move(sub)]() mutable {
      std::string response = shard->service->HandleRequest(std::move(sub));
      FinishShardJob(*shard);
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(aggregate->mu);
        aggregate->responses[i] = std::move(response);
        last = --aggregate->remaining == 0;
      }
      if (last) aggregate->emit(MergeTopKResponses(*aggregate));
    };
    // The slot is reserved; a full task queue degrades to running the
    // sub-query on this thread instead of shedding the whole fan-out.
    if (!shard->service->pool().TrySubmit(run)) run();
  }
}

std::string ShardedMatchService::MergeTopKResponses(
    const TopKAggregate& aggregate) const {
  struct MergedHit {
    RankedMember hit;
    size_t global_index = 0;
  };
  std::vector<MergedHit> merged;
  index::TopKStats stats;
  for (const std::string& response : aggregate.responses) {
    Result<JsonValue> doc = ParseJson(response);
    if (!doc.ok()) return RenderError(aggregate.id, doc.status());
    if (doc->GetString("status", "") != "ok") {
      // A failed shard fails the query; its rendered error already
      // carries the request id and status code.
      return response;
    }
    const JsonValue* index_stats = doc->Find("index");
    if (index_stats != nullptr) {
      stats.candidates_retrieved += static_cast<uint64_t>(
          index_stats->GetNumber("candidates_retrieved", 0));
      stats.pruned_by_bound +=
          static_cast<uint64_t>(index_stats->GetNumber("pruned_by_bound", 0));
      stats.exact_runs +=
          static_cast<uint64_t>(index_stats->GetNumber("exact_runs", 0));
      stats.aborted_runs +=
          static_cast<uint64_t>(index_stats->GetNumber("aborted_runs", 0));
      stats.used_brute_force = stats.used_brute_force ||
                               index_stats->GetBool("brute_force", false);
    }
    const JsonValue* shard_hits = doc->Find("hits");
    if (shard_hits == nullptr || !shard_hits->is_array()) continue;
    for (const JsonValue& h : shard_hits->array_items()) {
      MergedHit m;
      m.hit.member = h.GetString("member", "");
      m.hit.score = ScoreFromBits(h.GetString("score_bits", "0"));
      m.hit.correspondences =
          static_cast<size_t>(h.GetNumber("correspondences", 0));
      auto g = aggregate.global_index.find(m.hit.member);
      m.global_index = g != aggregate.global_index.end()
                           ? g->second
                           : aggregate.global_index.size();
      merged.push_back(std::move(m));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MergedHit& a, const MergedHit& b) {
              if (a.hit.score != b.hit.score) return a.hit.score > b.hit.score;
              return a.global_index < b.global_index;
            });
  if (merged.size() > aggregate.k) merged.resize(aggregate.k);
  std::vector<RankedMember> hits;
  for (MergedHit& m : merged) hits.push_back(std::move(m.hit));
  return RenderTopK(aggregate.id, aggregate.timer.ElapsedMillis(), aggregate.k,
                    static_cast<int>(aggregate.shards_involved), hits, stats);
}

std::string ShardedMatchService::HandleLineSync(const std::string& line) {
  std::promise<std::string> done;
  std::future<std::string> response = done.get_future();
  HandleLine(line,
             [&done](const std::string& result) { done.set_value(result); });
  return response.get();
}

void ShardedMatchService::Drain() {
  draining_.store(true, std::memory_order_release);
}

void ShardedMatchService::WaitDrained() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    for (const auto& shard : shards_) {
      if (shard->inflight.load(std::memory_order_acquire) != 0) return false;
    }
    return true;
  });
}

std::string ShardedMatchService::HandleAdmin(const std::string& cmd,
                                             const std::string& id) {
  ObsIncrement(options_.obs, "serve.admin_commands");
  if (cmd == "stats") return RenderStats(id);
  if (cmd == "health") return RenderHealth(id);
  if (cmd == "slow") return RenderSlow(id);
  if (cmd == "drain") return RenderDrainAck(id);
  return RenderError(
      id, Status::InvalidArgument("unknown cmd '" + cmd +
                                  "' (stats|health|slow|drain)"));
}

std::string ShardedMatchService::RenderDrainAck(const std::string& id) {
  LogInfo("drain requested via admin command");
  Drain();
  // The transport stops accepting while the router stops admitting; the
  // callback fires once even if drain is commanded repeatedly.
  bool expected = false;
  if (drain_callback_fired_.compare_exchange_strong(expected, true) &&
      drain_callback_) {
    drain_callback_();
  }
  JsonWriter w;
  BeginAdminResponse(&w, id, "drain");
  w.Key("draining");
  w.Bool(true);
  w.EndObject();
  return w.str();
}

std::string ShardedMatchService::RenderStats(const std::string& id) {
  JsonWriter w;
  BeginAdminResponse(&w, id, "stats");
  w.Key("uptime_seconds");
  w.Number(uptime_.ElapsedSeconds());
  if (options_.obs != nullptr) {
    interval_stats_.WriteJson(options_.obs->metrics, &w);
  }
  w.Key("router");
  w.BeginObject();
  w.Key("num_shards");
  w.Int(ring_.num_shards());
  w.Key("vnodes_per_shard");
  w.Int(ring_.vnodes_per_shard());
  w.Key("draining");
  w.Bool(draining());
  w.EndObject();
  w.Key("shards");
  w.BeginArray();
  for (const auto& shard : shards_) {
    BatchMatchService& service = *shard->service;
    w.BeginObject();
    w.Key("shard");
    w.Int(shard->index);
    w.Key("routed");
    w.Int(static_cast<long long>(
        shard->routed != nullptr ? shard->routed->value() : 0));
    w.Key("rejected_overloaded");
    w.Int(static_cast<long long>(shard->rejected_overloaded != nullptr
                                     ? shard->rejected_overloaded->value()
                                     : 0));
    w.Key("inflight");
    w.Int(shard->inflight.load(std::memory_order_relaxed));
    w.Key("max_inflight");
    w.Int(static_cast<long long>(shard->max_inflight));
    w.Key("queue_depth");
    w.Int(static_cast<long long>(service.pool().QueueDepth()));
    w.Key("queue_capacity");
    w.Int(static_cast<long long>(service.queue_capacity()));
    w.Key("threads");
    w.Int(service.pool().num_threads());
    w.Key("cache");
    w.BeginObject();
    w.Key("entries");
    w.Int(static_cast<long long>(service.cache().size()));
    w.Key("bytes");
    w.Int(static_cast<long long>(service.cache().cost_bytes()));
    w.Key("hits");
    w.Int(static_cast<long long>(service.cache().hits()));
    w.Key("misses");
    w.Int(static_cast<long long>(service.cache().misses()));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ShardedMatchService::RenderHealth(const std::string& id) {
  int64_t total_inflight = 0;
  for (const auto& shard : shards_) {
    total_inflight += shard->inflight.load(std::memory_order_relaxed);
  }
  JsonWriter w;
  BeginAdminResponse(&w, id, "health");
  w.Key("healthy");
  w.Bool(!draining());
  w.Key("draining");
  w.Bool(draining());
  w.Key("uptime_seconds");
  w.Number(uptime_.ElapsedSeconds());
  w.Key("num_shards");
  w.Int(ring_.num_shards());
  w.Key("jobs_in_flight");
  w.Int(total_inflight);
  w.Key("shards");
  w.BeginArray();
  for (const auto& shard : shards_) {
    w.BeginObject();
    w.Key("shard");
    w.Int(shard->index);
    w.Key("inflight");
    w.Int(shard->inflight.load(std::memory_order_relaxed));
    w.Key("queue_depth");
    w.Int(static_cast<long long>(shard->service->pool().QueueDepth()));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ShardedMatchService::RenderSlow(const std::string& id) {
  JsonWriter w;
  BeginAdminResponse(&w, id, "slow");
  w.Key("shards");
  w.BeginArray();
  for (const auto& shard : shards_) {
    w.BeginObject();
    w.Key("shard");
    w.Int(shard->index);
    w.Key("flight_recorder");
    if (shard->service->flight_recorder() != nullptr) {
      shard->service->flight_recorder()->WriteJson(&w);
    } else {
      w.Null();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace serve
}  // namespace ems
