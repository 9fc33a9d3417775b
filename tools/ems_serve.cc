// ems_serve: concurrent batch matching service. Reads newline-delimited
// JSON job requests (see src/serve/service.h for the schema) from stdin,
// a Unix socket, or a TCP listener, schedules them on a thread pool
// behind an LRU log cache, and writes one JSON result line per job in
// completion order. Admin commands ({"cmd":"stats"|"health"|"slow"|
// "drain"}) ride the same protocol and are answered inline; tools/
// ems_top renders them as a live dashboard.
//
//   ems_serve [options] < jobs.ndjson > results.ndjson
//
// The options are the rows of kFlags below; a usage error prints them.
// --socket accepts one client at a time on a Unix domain socket instead
// of stdin/stdout (a stale socket file left by a killed process is
// replaced; a path owned by a live server is refused). --tcp is the
// sharded mode (docs/SERVING.md): concurrent connections, jobs
// consistent-hashed across --shards, overload shed with explicit
// `overloaded` responses; --threads is then the total across shards,
// --queue-size and --max-inflight are per shard, and with --cache-dir
// shard i persists under PATH/shard-<i>. --threads=0 serves jobs
// serially (one worker, one per shard in --tcp mode).
//
// SIGTERM/SIGINT trigger a graceful drain in --socket and --tcp modes:
// stop accepting, finish every admitted job, flush the stats exporter,
// exit 0.
//
// Example session (one job object per input line):
//   $ ems_serve --threads=4 < jobs.ndjson
//   with jobs.ndjson containing e.g.
//   {"id":"j1","log1":"a.xes","log2":"b.xes"}
//   {"cmd":"stats","id":"s1"}
//   prints one result line per job and one snapshot line for the stats
//   command.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#ifndef _WIN32
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>  // libstdc++; socket fd -> iostream
#endif

#include "net/tcp_server.h"
#include "net/wire.h"
#include "obs/context.h"
#include "obs/report.h"
#include "serve/service.h"
#include "serve/sharded_service.h"
#include "serve/stats_exporter.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/timer.h"

namespace {

using namespace ems;
using enum OptionType;

struct Flags {
  int threads;
  size_t queue_size;
  size_t cache_size;
  size_t cache_bytes;
  std::string cache_dir;
  unsigned long long cache_dir_bytes;
  std::string metrics_out;
  std::string stats_out;
  double stats_interval;
  size_t flight_slow;
  size_t flight_failed;
  LogLevel log_level;
  std::string socket_path;
  std::string tcp;
  std::string tcp_announce;
  int shards;
  int vnodes;
  size_t max_inflight;
};

#define FLAG(field) EMS_OPTION_FIELD(Flags, field)

const OptionSpec<Flags> kFlags[] = {
    ThreadsOption<Flags>(),
    {.key = "queue_size", .type = kInteger, .fallback = 256, .min = 1,
     .doc = "bounded job queue capacity", FLAG(queue_size)},
    {.key = "cache_size", .type = kInteger, .fallback = 64, .min = 1,
     .doc = "parsed-log LRU capacity, in logs", FLAG(cache_size)},
    {.key = "cache_bytes", .type = kInteger, .min = 0,
     .doc = "parsed-log LRU byte budget (0: entry count only)",
     FLAG(cache_bytes)},
    {.key = "cache_dir", .type = kText, .choices = "PATH",
     .doc = "persistent artifact store (docs/PERSISTENCE.md); a restart "
            "with the same directory starts warm",
     FLAG(cache_dir)},
    {.key = "cache_dir_bytes", .type = kInteger, .min = 0,
     .doc = "byte budget of the on-disk store (0: unbounded)",
     FLAG(cache_dir_bytes)},
    {.key = "metrics_out", .type = kText, .choices = "PATH",
     .doc = "PipelineReport JSON on exit", FLAG(metrics_out)},
    {.key = "stats_out", .type = kText, .choices = "PATH",
     .doc = "Prometheus text exposition, rewritten atomically from a "
            "background thread and once on shutdown",
     FLAG(stats_out)},
    {.key = "stats_interval", .fallback = 5, .min = 0, .min_open = true,
     .doc = "exposition write period in seconds", FLAG(stats_interval)},
    {.key = "flight_slow", .type = kInteger, .fallback = 16, .min = 0,
     .doc = "flight recorder: slowest requests retained", FLAG(flight_slow)},
    {.key = "flight_failed", .type = kInteger, .fallback = 16, .min = 0,
     .doc = "flight recorder: recent failures retained", FLAG(flight_failed)},
    {.key = "log_level", .type = kChoice, .fallback = 1,
     .choices = "error|warn|info|debug",
     .doc = "structured stderr logging threshold", FLAG(log_level)},
    {.key = "socket", .type = kText, .choices = "PATH",
     .doc = "serve a Unix domain socket instead of stdin/stdout",
     FLAG(socket_path)},
    {.key = "tcp", .type = kText, .choices = "HOST:PORT",
     .doc = "sharded TCP mode; PORT 0 binds an ephemeral port", FLAG(tcp)},
    {.key = "tcp_announce", .type = kText, .choices = "PATH",
     .doc = "write the bound host:port to PATH once listening",
     FLAG(tcp_announce)},
    {.key = "shards", .type = kInteger, .fallback = 4, .min = 1,
     .doc = "worker shards in --tcp mode", FLAG(shards)},
    {.key = "vnodes", .type = kInteger, .fallback = 64, .min = 1,
     .doc = "hash-ring virtual nodes per shard", FLAG(vnodes)},
    {.key = "max_inflight", .type = kInteger, .min = 0,
     .doc = "per-shard admission cap (0: shard threads + queue capacity)",
     FLAG(max_inflight)},
};

#undef FLAG

#ifndef _WIN32
// Graceful-drain signal plumbing. The handler may only touch lock-free
// atomics and async-signal-safe syscalls (write/shutdown), so it pokes
// the wake pipe, half-closes the in-flight socket-mode connection, and
// forwards to TcpServer::RequestDrain (itself a CAS + pipe write). The
// handlers stay installed after a mode returns and may run on any thread
// (the stats exporter's included), so every global they read is atomic
// and the wake pipe's write end is exchanged to -1 before it is closed: a
// late signal then finds -1 instead of a number another file has reused.
// (The read end is polled by the serving thread only.)
std::atomic<bool> g_drain_requested{false};
std::atomic<int> g_active_conn_fd{-1};
std::atomic<int> g_signal_pipe_write{-1};  // the handler's wake byte
std::atomic<net::TcpServer*> g_tcp_server{nullptr};

extern "C" void HandleDrainSignal(int /*signo*/) {
  g_drain_requested.store(true, std::memory_order_release);
  if (net::TcpServer* server = g_tcp_server.load(std::memory_order_acquire)) {
    server->RequestDrain();
  }
  const int conn = g_active_conn_fd.load(std::memory_order_acquire);
  if (conn >= 0) ::shutdown(conn, SHUT_RD);
  const int wake = g_signal_pipe_write.load(std::memory_order_acquire);
  if (wake >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake, &byte, 1);
  }
}

void InstallDrainHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleDrainSignal;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

// Serves clients on a Unix domain socket, one connection at a time (each
// connection streams NDJSON jobs and reads NDJSON results back). Clients
// end their session by closing; SIGTERM/SIGINT drain: the current
// connection's read side is half-closed so RunStream sees EOF, finishes
// every queued job, and the loop exits 0.
int ServeSocket(serve::BatchMatchService& service, const std::string& path) {
  // A leftover socket file from a killed process must not block restart,
  // but a path a live server still answers on must not be stolen: probe
  // with a connect first — success means "address in use", refusal means
  // the file is stale and safe to unlink.
  if (Result<int> probe = net::ConnectUnix(path); probe.ok()) {
    ::close(*probe);
    LogError("socket " + path + " is in use by a running server");
    return 2;
  }
  ::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    LogError(std::string("socket: ") + std::strerror(errno));
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    LogError("socket path too long: " + path);
    ::close(listen_fd);
    return 2;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 4) < 0) {
    LogError(std::string("bind/listen: ") + std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  int wake_pipe[2];
  if (::pipe(wake_pipe) != 0) {
    LogError(std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  g_signal_pipe_write.store(wake_pipe[1], std::memory_order_release);
  InstallDrainHandlers();
  LogInfo("listening on " + path);
  int rc = 1;
  for (;;) {
    if (g_drain_requested.load(std::memory_order_acquire)) {
      rc = 0;
      break;
    }
    struct pollfd fds[2] = {{listen_fd, POLLIN, 0},
                            {wake_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      LogError(std::string("poll: ") + std::strerror(errno));
      break;
    }
    if (fds[1].revents != 0) {
      rc = 0;  // drain signal; nothing in flight
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      LogError(std::string("accept: ") + std::strerror(errno));
      break;
    }
    g_active_conn_fd.store(conn, std::memory_order_release);
    if (g_drain_requested.load(std::memory_order_acquire)) {
      // The signal raced the accept: the handler saw fd -1, so half-
      // close here; RunStream still answers whatever arrived first.
      ::shutdown(conn, SHUT_RD);
    }
    {
      __gnu_cxx::stdio_filebuf<char> in_buf(conn, std::ios::in);
      __gnu_cxx::stdio_filebuf<char> out_buf(::dup(conn), std::ios::out);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      const size_t jobs = service.RunStream(in, out);
      g_active_conn_fd.store(-1, std::memory_order_release);
      LogInfo("connection done (" + std::to_string(jobs) + " lines)");
    }  // filebufs close both fds
    if (g_drain_requested.load(std::memory_order_acquire)) {
      rc = 0;
      break;
    }
  }
  ::close(listen_fd);
  ::close(g_signal_pipe_write.exchange(-1, std::memory_order_acq_rel));
  ::close(wake_pipe[0]);
  ::unlink(path.c_str());
  if (rc == 0) LogInfo("drained; all accepted jobs answered");
  return rc;
}

// Writes the bound endpoint to the announce file atomically (tmp +
// rename), so scripts using --tcp=...:0 can discover the real port.
Status AnnounceEndpoint(const std::string& path, const std::string& host,
                        int port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return Status::IOError("open " + tmp + " failed");
  const std::string line = host + ":" + std::to_string(port) + "\n";
  const bool wrote = std::fwrite(line.data(), 1, line.size(), f) ==
                     line.size();
  if (std::fclose(f) != 0 || !wrote ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("write " + path + " failed");
  }
  return Status::OK();
}

// Sharded TCP mode: router + transport + drain wiring (the tentpole
// deployment shape; docs/SERVING.md).
int ServeTcp(const Flags& flags) {
  Result<net::HostPort> endpoint = net::ParseHostPort(flags.tcp);
  if (!endpoint.ok()) {
    LogError("--tcp: " + endpoint.status().message());
    return 2;
  }

  serve::ShardedServiceOptions options;
  options.num_shards = flags.shards;
  options.vnodes_per_shard = flags.vnodes;
  options.total_threads = flags.threads;
  options.shard_queue_capacity = flags.queue_size;
  options.max_inflight_per_shard = flags.max_inflight;
  options.cache_capacity = flags.cache_size;
  options.cache_byte_budget = flags.cache_bytes;
  options.cache_dir = flags.cache_dir;
  options.cache_dir_bytes = flags.cache_dir_bytes;
  options.flight_slow_capacity = flags.flight_slow;
  options.flight_failed_capacity = flags.flight_failed;
  serve::ShardedMatchService router(options);

  serve::StatsExporter stats_exporter(
      flags.stats_out.empty() ? nullptr : router.obs(), flags.stats_out,
      flags.stats_interval);
  Timer total_timer;

  net::TcpServerOptions server_options;
  server_options.host = endpoint->host;
  server_options.port = endpoint->port;
  server_options.obs = router.obs();
  net::TcpServer server(server_options, &router);
  Status started = server.Start();
  if (!started.ok()) {
    LogError("listen on " + flags.tcp + ": " + started.message());
    return 1;
  }
  // The `drain` admin command stops the transport too; signals stop the
  // transport first and the router drains once connections are done.
  router.SetDrainRequestCallback([&server] { server.RequestDrain(); });
  g_tcp_server.store(&server, std::memory_order_release);
  InstallDrainHandlers();

  LogInfo("listening on " + endpoint->host + ":" +
          std::to_string(server.port()) + " (" +
          std::to_string(router.num_shards()) + " shards)");
  if (!flags.tcp_announce.empty()) {
    Status announced =
        AnnounceEndpoint(flags.tcp_announce, endpoint->host, server.port());
    if (!announced.ok()) {
      LogError(announced.message());
      g_tcp_server.store(nullptr, std::memory_order_release);
      return 1;
    }
  }

  const uint64_t served = server.Wait();
  g_tcp_server.store(nullptr, std::memory_order_release);
  router.Drain();
  router.WaitDrained();
  LogInfo("drained after " + std::to_string(served) + " connections");

  stats_exporter.Stop();  // final exposition write before the report
  if (!flags.metrics_out.empty()) {
    PipelineReport report =
        BuildPipelineReport(router.obs(), EmsStats{}, CompositeStats{},
                            total_timer.ElapsedMillis());
    Status st = report.WriteJsonFile(flags.metrics_out);
    if (!st.ok()) {
      LogError("error writing " + flags.metrics_out + ": " + st.ToString());
      return 1;
    }
  }
  return 0;
}
#endif

int Run(int argc, char** argv) {
  OptionParser<Flags> parser(kFlags);
  Status parsed = ParseArgs(argc, argv, nullptr, parser);
  Flags flags = parser.target();
  if (parsed.ok() && !flags.socket_path.empty() && !flags.tcp.empty()) {
    parsed = Status::InvalidArgument("--socket and --tcp are exclusive");
  }
  if (!parsed.ok()) {
    return UsageError(parsed, argv[0], "[options] < JOBS > RESULTS",
                      parser);
  }
  // Serial is one worker; ServiceOptions reads 0 as hardware concurrency.
  flags.threads = std::max(flags.threads, 1);
  SetGlobalLogLevel(flags.log_level);

  if (!flags.tcp.empty()) {
#ifndef _WIN32
    return ServeTcp(flags);
#else
    LogError("--tcp is not supported on this OS");
    return 2;
#endif
  }

  serve::ServiceOptions options;
  options.threads = flags.threads;
  options.queue_capacity = flags.queue_size;
  options.cache_capacity = flags.cache_size;
  options.cache_byte_budget = flags.cache_bytes;
  options.cache_dir = flags.cache_dir;
  options.cache_dir_bytes = flags.cache_dir_bytes;
  options.flight_slow_capacity = flags.flight_slow;
  options.flight_failed_capacity = flags.flight_failed;
  // The service owns its telemetry context (options.obs stays null), so
  // stats/health/slow and the exposition export always have live data.

  serve::BatchMatchService service(options);
  serve::StatsExporter stats_exporter(
      flags.stats_out.empty() ? nullptr : service.obs(), flags.stats_out,
      flags.stats_interval);
  Timer total_timer;
  int rc = 0;
  if (!flags.socket_path.empty()) {
#ifndef _WIN32
    rc = ServeSocket(service, flags.socket_path);
#else
    LogError("--socket is not supported on this OS");
    return 2;
#endif
  } else {
    const size_t jobs = service.RunStream(std::cin, std::cout);
    LogInfo("stream done: " + std::to_string(jobs) + " lines, cache " +
            std::to_string(service.cache().hits()) + " hits / " +
            std::to_string(service.cache().misses()) + " misses");
  }

  stats_exporter.Stop();  // final exposition write before the report
  if (!flags.metrics_out.empty()) {
    PipelineReport report =
        BuildPipelineReport(service.obs(), EmsStats{}, CompositeStats{},
                            total_timer.ElapsedMillis());
    Status st = report.WriteJsonFile(flags.metrics_out);
    if (!st.ok()) {
      LogError("error writing " + flags.metrics_out + ": " + st.ToString());
      return 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
