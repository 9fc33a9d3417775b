// serve_mixed: an in-process ShardedMatchService (2 shards, nproc
// threads, the default per-shard LogCache, an artifact store primed at
// set-up) behind a loopback net::TcpServer. Jobs are drawn Zipf from the
// seed; the mix is plain matches, "prob":true matches, and appends to
// dedicated live pairs. The untraced run sends one request at a time over
// one connection (each request's CPU time is the op's cost, in runs of
// the reference kernel, calibrate.h). The traced run adds an open loop
// at a fixed rate over nproc connections, each request timed from its
// due time, and a closed loop over nproc connections for capacity.
// Every response is checked against a serial HandleLineSync on a
// separate reference service.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/tcp_server.h"
#include "net/wire.h"
#include "obs/context.h"
#include "serve/log_cache.h"
#include "serve/sharded_service.h"
#include "util/json_writer.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using ems::Result;
using ems::Status;

namespace {

constexpr int kShards = 2;
constexpr double kDrainSeconds = 30.0;  // answer deadline after a phase

// The service and its transport. The server drains (and joins its
// connection threads) before the service it borrows is destroyed.
struct Rig {
  ems::ObsContext obs;
  std::unique_ptr<ems::serve::ShardedMatchService> service;
  std::unique_ptr<ems::net::TcpServer> server;

  ~Rig() { server.reset(); }
};

Status StartRig(const Inputs& inputs, const RunSettings& settings,
                const std::string& store_dir, Rig* rig, SpanLedger* ledger,
                std::vector<uint64_t>* prime_ops, uint64_t* next_op) {
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  ems::serve::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.total_threads = settings.nproc;
  options.cache_dir = store_dir;
  options.obs = &rig->obs;
  rig->service = std::make_unique<ems::serve::ShardedMatchService>(options);
  for (const auto* group : {&inputs.pairs, &inputs.live}) {
    for (const PairFiles& pair : *group) {
      // Both logs of a job load in the shard that owns its log1.
      ems::store::ArtifactStore* store =
          rig->service->shard_service(rig->service->ShardForPath(pair.log1))
              .artifact_store();
      if (store == nullptr) return Status::IOError("no store in " + store_dir);
      for (const std::string* path : {&pair.log1, &pair.log2}) {
        EMS_RETURN_NOT_OK(
            PrimeLog(store, *path, "xes", ledger, next_op, prime_ops));
      }
    }
  }
  ems::net::TcpServerOptions server_options;
  server_options.port = 0;
  rig->server = std::make_unique<ems::net::TcpServer>(server_options,
                                                      rig->service.get());
  return rig->server->Start();
}

std::string StaticLine(const std::string& id, const PairFiles& pair,
                       bool prob) {
  ems::JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("log1");
  w.String(pair.log1);
  w.Key("log2");
  w.String(pair.log2);
  w.Key("format");
  w.String("xes");
  if (prob) {
    w.Key("prob");
    w.Bool(true);
  }
  w.EndObject();
  return w.str();
}

std::string AppendLine(const std::string& id, const PairFiles& pair,
                       const TraceBatch& batch) {
  ems::JsonWriter w;
  w.BeginObject();
  w.Key("cmd");
  w.String("append");
  w.Key("id");
  w.String(id);
  w.Key("log1");
  w.String(pair.log1);
  w.Key("log2");
  w.String(pair.log2);
  w.Key("format");
  w.String("xes");
  w.Key("traces");
  w.BeginArray();
  for (const std::vector<std::string>& trace : batch) {
    w.BeginArray();
    for (const std::string& event : trace) w.String(event);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

enum class Phase { kOpen, kClosed, kSerial };

struct Request {
  JobDraw::Kind kind = JobDraw::Kind::kPlain;
  int pair = 0;    // static pair, or live pair for appends
  int batch = -1;  // appends: position in the live pair's sequence
  Phase phase = Phase::kOpen;
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = -1.0;
  std::string response;
};

// Every request of a run, in send order; id "r<index>". Also owns the
// live pairs' append sequences: an append goes to a live pair with no
// append in flight, so each pair's batches apply in the order sent.
class RequestLog {
 public:
  explicit RequestLog(const Inputs& inputs) : inputs_(inputs) {
    live_sent_.assign(inputs.live.size(), 0);
    live_busy_.assign(inputs.live.size(), false);
  }

  // Registers a request for `draw` and returns (index, line).
  std::pair<size_t, std::string> Add(const JobDraw& draw, Phase phase,
                                     double due_ms, double sent_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    Request r;
    r.kind = draw.kind;
    r.pair = draw.pair;
    r.phase = phase;
    r.due_ms = due_ms;
    r.sent_ms = sent_ms;
    const size_t index = requests_.size();
    const std::string id = "r" + std::to_string(index);
    std::string line;
    if (draw.kind == JobDraw::Kind::kAppend) {
      const size_t n = live_sent_.size();
      size_t pick = next_live_ % n;
      for (size_t k = 0; k < n; ++k) {
        if (!live_busy_[(next_live_ + k) % n]) {
          pick = (next_live_ + k) % n;
          break;
        }
      }
      next_live_ = pick + 1;
      live_busy_[pick] = true;
      r.pair = static_cast<int>(pick);
      r.batch = live_sent_[pick]++;
      const auto& batches = inputs_.append_batches[pick];
      line = AppendLine(id, inputs_.live[pick],
                        batches[static_cast<size_t>(r.batch) % batches.size()]);
    } else {
      line = StaticLine(id, inputs_.pairs[static_cast<size_t>(draw.pair)],
                        draw.kind == JobDraw::Kind::kProb);
    }
    requests_.push_back(std::move(r));
    return {index, std::move(line)};
  }

  // Records a response line; returns false for an unknown id.
  bool Complete(const std::string& response, double now_ms) {
    const std::string prefix = "{\"id\":\"r";
    if (response.compare(0, prefix.size(), prefix) != 0) return false;
    const size_t index =
        std::strtoull(response.c_str() + prefix.size(), nullptr, 10);
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= requests_.size() || requests_[index].done_ms >= 0.0) {
      return false;
    }
    Request& r = requests_[index];
    r.done_ms = now_ms;
    r.response = response;
    if (r.kind == JobDraw::Kind::kAppend) {
      live_busy_[static_cast<size_t>(r.pair)] = false;
    }
    ++answered_;
    cv_.notify_all();
    return true;
  }

  // Waits until every request sent so far is answered, or `timeout_s`.
  bool WaitAnswered(double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return answered_ == requests_.size(); });
  }

  const std::deque<Request>& requests() const { return requests_; }
  const std::vector<int>& live_sent() const { return live_sent_; }

 private:
  const Inputs& inputs_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> requests_;  // stable addresses under push_back
  size_t answered_ = 0;
  std::vector<int> live_sent_;
  std::vector<bool> live_busy_;
  size_t next_live_ = 0;
};

// Thread-safe front of the seeded sampler (closed-loop clients share it).
class SharedSampler {
 public:
  SharedSampler(const WorkloadConfig& config, uint64_t seed)
      : sampler_(seed, config.pairs, config.zipf_s, config.prob_share,
                 config.append_share) {}
  JobDraw Next() {
    std::lock_guard<std::mutex> lock(mu_);
    return sampler_.Next();
  }

 private:
  std::mutex mu_;
  JobSampler sampler_;
};

// Open connections to the rig, one reader thread each; closing shuts the
// sockets down and joins the readers.
class Connections {
 public:
  Connections(RequestLog* log, const ems::Timer* clock)
      : log_(log), clock_(clock) {}
  ~Connections() { Close(); }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  Status Open(int port, int count) {
    for (int i = 0; i < count; ++i) {
      EMS_ASSIGN_OR_RETURN(int fd, ems::net::ConnectTcp("127.0.0.1", port));
      fds_.push_back(fd);
      readers_.emplace_back([this, fd] {
        ems::net::FdLineReader reader(fd);
        std::string line;
        while (reader.ReadLine(&line)) {
          log_->Complete(line, clock_->ElapsedMillis());
        }
      });
    }
    return Status::OK();
  }

  Status Send(size_t connection, const std::string& line) {
    return ems::net::WriteAll(fds_[connection % fds_.size()], line + "\n");
  }

  void Close() {
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : readers_) t.join();
    for (int fd : fds_) ::close(fd);
    fds_.clear();
    readers_.clear();
  }

 private:
  RequestLog* log_;
  const ems::Timer* clock_;
  std::vector<int> fds_;
  std::vector<std::thread> readers_;
};

struct OpenLoopStats {
  double lag_max_ms = 0.0;
  size_t sent = 0;
};

// Sends at `rate` per second (exponential gaps from `seed`) until
// `seconds` have passed, each request at its due time; waits for the
// answers. Lateness is the send time minus the due time.
Result<OpenLoopStats> RunOpenLoop(const WorkloadConfig& config,
                                  const RunSettings& settings, int port,
                                  double seconds, SharedSampler* sampler,
                                  RequestLog* log, const ems::Timer& clock) {
  Connections connections(log, &clock);
  EMS_RETURN_NOT_OK(connections.Open(port, settings.nproc));
  SeededRng arrivals(settings.seed ^ 0x9e3779b97f4a7c15ULL);
  OpenLoopStats stats;
  using Ms = std::chrono::duration<double, std::milli>;
  const auto epoch = std::chrono::steady_clock::now();
  const double start_ms = clock.ElapsedMillis();
  double due_ms = start_ms;
  while (true) {
    due_ms += 1000.0 * arrivals.Exponential(config.rate_per_s);
    if (due_ms - start_ms > seconds * 1000.0) break;
    std::this_thread::sleep_until(
        epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    Ms(due_ms - start_ms)));
    const JobDraw draw = sampler->Next();
    const double sent_ms = clock.ElapsedMillis();
    auto [index, line] = log->Add(draw, Phase::kOpen, due_ms, sent_ms);
    EMS_RETURN_NOT_OK(connections.Send(index, line));
    stats.lag_max_ms = std::max(stats.lag_max_ms, sent_ms - due_ms);
    ++stats.sent;
  }
  log->WaitAnswered(kDrainSeconds);
  return stats;
}

// `clients` connections, each sending its next request when the
// previous one is answered, for `seconds` or until `max_requests` are
// answered (0: no limit); returns the number answered.
// With one client the process serves one request at a time, so the
// process CPU time from sending a request to reading its response is
// that request's own; pass `requests` then to collect them, and
// `reference` to tick the reference kernel between requests (and to
// time them on its clock).
Result<size_t> RunClosedLoop(int port, int clients, double seconds,
                             size_t max_requests, SharedSampler* sampler,
                             RequestLog* log,
                             const ems::Timer& clock,
                             std::vector<TimedCpu>* requests,
                             ReferenceClock* reference) {
  std::vector<std::thread> threads;
  std::mutex mu;
  Status failure = Status::OK();
  size_t answered = 0;
  const double end_ms = clock.ElapsedMillis() + seconds * 1000.0;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      Result<int> fd = ems::net::ConnectTcp("127.0.0.1", port);
      if (!fd.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        failure = fd.status();
        return;
      }
      ems::net::FdLineReader reader(*fd);
      std::string response;
      std::vector<TimedCpu> timed;
      size_t completed = 0;
      while (clock.ElapsedMillis() < end_ms &&
             (max_requests == 0 || completed < max_requests)) {
        const bool serial = reference != nullptr && clients == 1;
        if (serial) reference->Tick();
        const double now = clock.ElapsedMillis();
        auto [index, line] =
            log->Add(sampler->Next(), Phase::kClosed, now, now);
        line += "\n";
        const double at_ms = serial ? reference->NowMs() : 0.0;
        CpuTimer cpu;
        if (!ems::net::WriteAll(*fd, line).ok() ||
            !reader.ReadLine(&response)) {
          break;
        }
        timed.push_back({at_ms, cpu.ElapsedMillis()});
        log->Complete(response, clock.ElapsedMillis());
        ++completed;
      }
      ::close(*fd);
      std::lock_guard<std::mutex> lock(mu);
      answered += completed;
      if (requests != nullptr && clients == 1) {
        requests->insert(requests->end(), timed.begin(), timed.end());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!failure.ok()) return failure;
  return answered;
}

// Checks every answered request against a serial HandleLineSync on
// reference services and fills the outcome counters and f_measure.
// Static jobs are replayed on a service reading the primed store at
// `store_dir` (decoding is cheaper than parsing again); appends on one
// without a store, so no persisted session state leaks into them.
Status CheckResponses(const Inputs& inputs, const RequestLog& log,
                      const std::string& store_dir, RunResult* out,
                      double* f_measure) {
  ems::serve::ShardedServiceOptions options;
  options.num_shards = kShards;
  options.total_threads = kShards;
  options.telemetry = false;
  ems::serve::ShardedMatchService live_reference(options);
  options.cache_dir = store_dir;
  ems::serve::ShardedMatchService reference(options);

  std::map<std::pair<int, bool>, uint64_t> static_refs;  // (pair, prob)
  std::vector<std::vector<uint64_t>> live_refs(inputs.live.size());
  for (const Request& r : log.requests()) {
    if (r.kind == JobDraw::Kind::kAppend) continue;
    const std::pair<int, bool> key{r.pair, r.kind == JobDraw::Kind::kProb};
    if (static_refs.count(key)) continue;
    EMS_ASSIGN_OR_RETURN(
        static_refs[key],
        NormalizedDigest(reference.HandleLineSync(StaticLine(
            "ref", inputs.pairs[static_cast<size_t>(r.pair)], key.second))));
  }
  for (size_t p = 0; p < inputs.live.size(); ++p) {
    const auto& batches = inputs.append_batches[p];
    for (int k = 0; k < log.live_sent()[p]; ++k) {
      EMS_ASSIGN_OR_RETURN(
          uint64_t digest,
          NormalizedDigest(live_reference.HandleLineSync(AppendLine(
              "ref", inputs.live[p],
              batches[static_cast<size_t>(k) % batches.size()]))));
      live_refs[p].push_back(digest);
    }
  }

  double f_sum = 0.0;
  size_t f_jobs = 0;
  for (const Request& r : log.requests()) {
    ++out->attempted;
    const bool append = r.kind == JobDraw::Kind::kAppend;
    const uint64_t expected =
        append ? live_refs[static_cast<size_t>(r.pair)]
                          [static_cast<size_t>(r.batch)]
               : static_refs[{r.pair, r.kind == JobDraw::Kind::kProb}];
    Result<uint64_t> digest = NormalizedDigest(r.response);
    if (r.done_ms < 0.0 || !digest.ok() || *digest != expected) {
      ++out->failed;
      continue;
    }
    if (!append) {
      EMS_ASSIGN_OR_RETURN(
          double f,
          FMeasureOfRendered(r.response,
                             inputs.pairs[static_cast<size_t>(r.pair)].truth));
      f_sum += f;
      ++f_jobs;
    }
  }
  *f_measure = Ratio(f_sum, static_cast<double>(f_jobs));
  return Status::OK();
}

std::vector<double> OpenLoopLatencies(const RequestLog& log) {
  std::vector<double> latencies;
  for (const Request& r : log.requests()) {
    if (r.phase == Phase::kOpen && r.done_ms >= 0.0) {
      latencies.push_back(r.done_ms - r.due_ms);
    }
  }
  return latencies;
}

Status CheckLag(const OpenLoopStats& stats, const RunSettings& settings) {
  if (stats.lag_max_ms > settings.lag_limit_ms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "run invalid: the open-loop generator ran %.1f ms late "
                  "(limit %.1f ms)",
                  stats.lag_max_ms, settings.lag_limit_ms);
    return Status::Internal(buf);
  }
  return Status::OK();
}

// Serial requests before peak_rss_mb is read (at 20 s a run answers
// about 1000 to 2200 on a 4-vCPU host).
constexpr size_t kRequestsBeforeRss = 500;

// The batch warm op (LoadEventLogThroughStore from the owning shard's
// primed store -> Matcher::Match -> render), in whole rounds over the
// `kWarmPairs` most requested pairs. Serial, as the service runs each
// job inside one worker.
constexpr size_t kWarmPairs = 7;

// CPU time of each warm op, grouped by pair.
Result<std::vector<std::vector<TimedCpu>>> WarmOps(const Inputs& inputs,
                                                   Rig* rig, double seconds,
                                                   uint64_t seed,
                                                   ReferenceClock* reference,
                                                   RunResult* out) {
  const std::vector<PairFiles> pairs(inputs.pairs.begin(),
                                     inputs.pairs.begin() + kWarmPairs);
  EMS_ASSIGN_OR_RETURN(std::vector<uint64_t> refs,
                       References(pairs, "xes", false));
  const std::vector<size_t> order = PairOrder(pairs.size(), seed);
  const ems::MatchOptions options = OpOptions(false, 0);
  std::vector<std::vector<TimedCpu>> ms(pairs.size());
  ems::Timer run;
  for (size_t i = 0; i % order.size() != 0 || run.ElapsedSeconds() < seconds;
       ++i) {
    const size_t p = order[i % order.size()];
    ems::store::ArtifactStore* store =
        rig->service->shard_service(rig->service->ShardForPath(pairs[p].log1))
            .artifact_store();
    reference->Tick();
    const double at_ms = reference->NowMs();
    CpuTimer op;
    Result<std::string> rendered = RunOp(pairs[p], "xes", options, store);
    ms[p].push_back({at_ms, op.ElapsedMillis()});
    ++out->attempted;
    if (!Matches(rendered, refs[p])) ++out->failed;
  }
  return ms;
}

Result<RunResult> RunUntraced(const WorkloadConfig& config,
                              const Inputs& inputs,
                              const RunSettings& settings) {
  RunResult out;
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  ReferenceClock setup_reference;
  for (ems::Timer total; KeepSettingUp(setups, total.ElapsedSeconds());) {
    rig.reset();
    rig = std::make_unique<Rig>();
    EMS_ASSIGN_OR_RETURN(double setup_s, TimeSetUp(&setup_reference, [&] {
                           return StartRig(inputs, settings,
                                           settings.data_dir + "/store",
                                           rig.get(), nullptr, nullptr,
                                           nullptr);
                         }));
    setups.push_back(setup_s);
  }
  const int port = rig->server->port();

  RequestLog log(inputs);
  SharedSampler sampler(config, settings.seed);
  ems::Timer clock;
  // Costs are CPU time in runs of the reference kernel (calibrate.h),
  // which runs between the warm ops and between the serial requests, a
  // clock for each phase as the host's speed drifts. The warm ops come
  // first, while the process is in the same state for every seed.
  ReferenceClock warm_reference(/*share=*/0.2);
  EMS_ASSIGN_OR_RETURN(std::vector<std::vector<TimedCpu>> warm_ops,
                       WarmOps(inputs, rig.get(), settings.seconds * 0.15,
                               settings.seed, &warm_reference, &out));
  // One request at a time over one connection: each request's CPU time
  // is the op's. Capacity at nproc connections is a wall-clock figure
  // and only steady enough for the traced run (serve.max_ops_per_s).
  // Appends grow the live logs, so memory grows with the requests a run
  // gets through: peak_rss_mb is read after a fixed number of them.
  ReferenceClock reference;
  std::vector<TimedCpu> requests;
  ems::Timer serial_phase;
  EMS_RETURN_NOT_OK(RunClosedLoop(port, 1, settings.seconds * 0.85,
                                  kRequestsBeforeRss, &sampler, &log, clock,
                                  &requests, &reference)
                        .status());
  out.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  EMS_RETURN_NOT_OK(
      RunClosedLoop(port, 1,
                    std::max(0.0, settings.seconds * 0.85 -
                                      serial_phase.ElapsedSeconds()),
                    0, &sampler, &log, clock, &requests, &reference)
          .status());
  rig.reset();
  if (!reference.consistent() || !warm_reference.consistent()) {
    return Status::Internal("the reference kernel changed its result");
  }

  double f_measure = 0.0;
  EMS_RETURN_NOT_OK(CheckResponses(inputs, log, settings.data_dir + "/store",
                                   &out, &f_measure));
  std::vector<double> request_cpu_ms, request_costs;
  double total_cost = 0.0;
  for (const TimedCpu& r : requests) {
    request_cpu_ms.push_back(r.cpu_ms);
    request_costs.push_back(reference.CostOf(r));
    total_cost += request_costs.back();
  }
  std::vector<std::vector<double>> warm_costs(warm_ops.size());
  for (size_t p = 0; p < warm_ops.size(); ++p) {
    for (const TimedCpu& op : warm_ops[p]) {
      warm_costs[p].push_back(warm_reference.CostOf(op));
    }
  }
  WarnIfThinTail(request_costs.size(), config.tail_percentile);
  PrintRawTimes(Median(request_cpu_ms), -1.0, reference);
  out.metrics["setup_s"] = {Median(setups), "s"};
  out.metrics["op_cost_p50"] = {Median(request_costs), "x"};
  out.metrics["op_cost_tail"] = {
      MedianBeyond(request_costs, config.tail_percentile), "x"};
  out.metrics["warm_op_cost_p50"] = {MeanOfMedians(warm_costs), "x"};
  // Throughput of the serial requests: every request, the costly tail
  // too, over their total cost.
  out.metrics["ops_per_kernel"] = {
      Ratio(static_cast<double>(requests.size()), total_cost), "1/x"};
  out.metrics["f_measure"] = {f_measure, "ratio"};
  return out;
}

Result<RunResult> RunTraced(const WorkloadConfig& config, const Inputs& inputs,
                            const RunSettings& settings) {
  RunResult out;
  out.metrics = ZeroLayerMetrics();
  MetricMap& m = out.metrics;
  SpanLedger ledger;
  uint64_t next_op = 1;
  std::vector<uint64_t> prime_ops;
  Rig rig;
  EMS_RETURN_NOT_OK(StartRig(inputs, settings, settings.data_dir + "/store",
                             &rig, &ledger, &prime_ops, &next_op));
  m["store.encode_ms"].value =
      MedianOver(ledger.SelfTimeByOp("store.encode"), prime_ops);
  ems::ObsContext& obs = rig.obs;
  RequestLog log(inputs);
  ems::Timer clock;

  // Service time: the same job lines, serially through HandleLineSync.
  // Each pair: plain (cache miss: store decode), prob, plain (cache hit).
  auto serial = [&](const JobDraw& draw) {
    auto [index, line] = log.Add(draw, Phase::kSerial, clock.ElapsedMillis(),
                                 clock.ElapsedMillis());
    const uint64_t op = next_op++;
    SpanLedger::Scope span(&ledger, "serve.sync", op);
    ems::Timer timer;
    const std::string response = rig.service->HandleLineSync(line);
    const double ms = timer.ElapsedMillis();
    log.Complete(response, clock.ElapsedMillis());
    return ms;
  };
  const uint64_t prob_runs0 = Counter(obs, "prob.runs");
  const uint64_t prob_iters0 = Counter(obs, "prob.iterations");
  std::vector<double> service_ms, em_ms;
  const int sample_pairs = std::min(config.pairs, 12);
  for (int p = 0; p < sample_pairs; ++p) {
    service_ms.push_back(serial({JobDraw::Kind::kPlain, p}));
    const double prob_ms = serial({JobDraw::Kind::kProb, p});
    const double plain_ms = serial({JobDraw::Kind::kPlain, p});
    service_ms.push_back(plain_ms);
    em_ms.push_back(prob_ms - plain_ms);
  }
  m["serve.service_ms_p50"].value = Median(service_ms);
  m["prob.em_ms"].value = Median(em_ms);
  m["prob.em_iterations"].value =
      Ratio(static_cast<double>(Counter(obs, "prob.iterations") - prob_iters0),
            static_cast<double>(Counter(obs, "prob.runs") - prob_runs0));
  const uint64_t saved0 = Counter(obs, "stream.iterations_saved");
  const uint64_t appends0 = Counter(obs, "stream.appends");
  std::vector<double> append_ms;
  for (size_t p = 0; p < 2 * inputs.live.size(); ++p) {
    append_ms.push_back(serial({JobDraw::Kind::kAppend, 0}));
  }
  m["stream.append_ms_p50"].value = Median(append_ms);

  // Net overhead: health round trips over one loopback connection.
  {
    EMS_ASSIGN_OR_RETURN(int fd,
                         ems::net::ConnectTcp("127.0.0.1", rig.server->port()));
    ems::net::FdLineReader reader(fd);
    std::vector<double> rtt;
    std::string response;
    for (int i = 0; i < 50; ++i) {
      ems::Timer timer;
      if (!ems::net::WriteAll(fd, "{\"cmd\":\"health\"}\n").ok() ||
          !reader.ReadLine(&response)) {
        ::close(fd);
        return Status::IOError("health round trip failed");
      }
      rtt.push_back(timer.ElapsedMillis());
    }
    ::close(fd);
    m["net.overhead_ms_p50"].value = Median(rtt);
  }

  // The open loop at the fixed rate, with request spans.
  const uint64_t hits0 = Counter(obs, "serve.cache.hits");
  const uint64_t misses0 = Counter(obs, "serve.cache.misses");
  const uint64_t store_hits0 = Counter(obs, "store.hits");
  const uint64_t store_misses0 = Counter(obs, "store.misses");
  SharedSampler sampler(config, settings.seed);
  const size_t first_open = log.requests().size();
  EMS_ASSIGN_OR_RETURN(
      OpenLoopStats open,
      RunOpenLoop(config, settings, rig.server->port(), settings.seconds * 0.45,
                  &sampler, &log, clock));
  EMS_RETURN_NOT_OK(CheckLag(open, settings));
  const double ledger_offset = ledger.NowMs() - clock.ElapsedMillis();
  for (size_t i = first_open; i < log.requests().size(); ++i) {
    const Request& r = log.requests()[i];
    if (r.done_ms < 0.0) continue;
    const uint64_t op = next_op++;
    const int root = ledger.Add("request", r.due_ms + ledger_offset,
                                r.done_ms + ledger_offset, -1, op);
    ledger.Add("request.lag", r.due_ms + ledger_offset,
               r.sent_ms + ledger_offset, root, op);
    ledger.Add("request.service", r.sent_ms + ledger_offset,
               r.done_ms + ledger_offset, root, op);
  }
  const double hits =
      static_cast<double>(Counter(obs, "serve.cache.hits") - hits0);
  const double misses =
      static_cast<double>(Counter(obs, "serve.cache.misses") - misses0);
  m["serve.cache_hit_ratio"].value = Ratio(hits, hits + misses);
  m["serve.cache_misses"].value = misses;
  const double store_hits =
      static_cast<double>(Counter(obs, "store.hits") - store_hits0);
  const double store_misses =
      static_cast<double>(Counter(obs, "store.misses") - store_misses0);
  m["store.hit_ratio"].value = Ratio(store_hits, store_hits + store_misses);
  m["serve.queue_ms_p50"].value =
      Median(OpenLoopLatencies(log)) - m["serve.service_ms_p50"].value;
  m["net.lag_ms_max"].value = open.lag_max_ms;

  // Capacity: nproc connections, each sending when answered.
  {
    ems::Timer wall;
    EMS_ASSIGN_OR_RETURN(
        size_t answered,
        RunClosedLoop(rig.server->port(), settings.nproc,
                      settings.seconds * 0.15, 0, &sampler, &log, clock,
                      nullptr, nullptr));
    m["serve.max_ops_per_s"].value =
        Ratio(static_cast<double>(answered), wall.ElapsedSeconds());
  }
  m["stream.iterations_saved"].value =
      Ratio(static_cast<double>(Counter(obs, "stream.iterations_saved") -
                                saved0),
            static_cast<double>(Counter(obs, "stream.appends") - appends0));

  // The pipeline's layers on a few corpus pairs, warm through the
  // owning shard's store.
  const std::vector<PairFiles> sample(inputs.pairs.begin(),
                                      inputs.pairs.begin() + 4);
  PipelineTraceOptions trace;
  trace.pairs = &sample;
  trace.format = "xes";
  trace.store_for = [&](size_t p) {
    return rig.service->shard_service(rig.service->ShardForPath(sample[p].log1))
        .artifact_store();
  };
  trace.seconds = settings.seconds * 0.25;
  trace.seed = settings.seed;
  EMS_RETURN_NOT_OK(TracePipeline(trace, &ledger, &next_op, &out));
  m["wall.op_ms_p50"].value = Median(OpenLoopLatencies(log));
  rig.server.reset();

  double f_measure = 0.0;
  EMS_RETURN_NOT_OK(CheckResponses(inputs, log, settings.data_dir + "/store",
                                   &out, &f_measure));
  if (!settings.trace_out.empty()) {
    EMS_RETURN_NOT_OK(ledger.WriteJson(settings.trace_out));
  }
  return out;
}

}  // namespace

Result<RunResult> RunServeWorkload(const WorkloadConfig& config,
                                   const Inputs& inputs,
                                   const RunSettings& settings) {
  return settings.trace ? RunTraced(config, inputs, settings)
                        : RunUntraced(config, inputs, settings);
}

}  // namespace perfbench
