// End-to-end smoke test of the ems_serve binary: pipes job lines through
// it and validates the JSON responses and the metrics export, and drives
// the --socket front end. The binary path is injected by CMake as
// EMS_SERVE_BINARY.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace ems {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  out << body;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Brace/bracket balance outside string literals — same validator as
// metrics_export_test.
bool BalancedJson(const std::string& s) {
  std::string stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') stack += c;
    else if (c == '}') {
      if (stack.empty() || stack.back() != '{') return false;
      stack.pop_back();
    } else if (c == ']') {
      if (stack.empty() || stack.back() != '[') return false;
      stack.pop_back();
    }
  }
  return stack.empty() && !in_string;
}

TEST(ServeSmokeTest, ThreeJobsYieldThreeJsonResponsesAndMetrics) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/serve_smoke_log1.txt";
  const std::string log2 = dir + "/serve_smoke_log2.txt";
  const std::string jobs = dir + "/serve_smoke_jobs.ndjson";
  const std::string results = dir + "/serve_smoke_results.ndjson";
  const std::string metrics = dir + "/serve_smoke_metrics.json";
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\nb;a;c;d\n");
  WriteFile(log2, "a;b;c;d\na;b;d\na;c;b;d\nb;c;d\n");

  std::ostringstream job_lines;
  const std::string pair =
      "\"log1\":\"" + log1 + "\",\"log2\":\"" + log2 + "\"";
  job_lines << "{\"id\":\"j1\"," << pair << ",\"labels\":\"none\"}\n";
  job_lines << "{\"id\":\"j2\"," << pair << "}\n";
  job_lines << "{\"id\":\"j3\"," << pair
            << ",\"engine\":\"estimated\",\"iterations\":3}\n";
  WriteFile(jobs, job_lines.str());

  const std::string cmd = std::string(EMS_SERVE_BINARY) + " --threads=2" +
                          " --metrics-out=" + metrics + " < " + jobs + " > " +
                          results + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // One well-formed JSON response per job, every one ok.
  std::ifstream in(results);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  std::string ids;
  for (const std::string& l : lines) {
    EXPECT_TRUE(BalancedJson(l)) << l;
    EXPECT_NE(l.find("\"status\":\"ok\""), std::string::npos) << l;
    EXPECT_NE(l.find("\"correspondences\""), std::string::npos) << l;
    EXPECT_NE(l.find("\"millis\""), std::string::npos) << l;
    ids += l.substr(0, l.find(','));  // {"id":"jN"
  }
  // All three ids came back (order may differ: completion order).
  EXPECT_NE(ids.find("j1"), std::string::npos);
  EXPECT_NE(ids.find("j2"), std::string::npos);
  EXPECT_NE(ids.find("j3"), std::string::npos);

  // The metrics export carries the service and pool instruments.
  std::string report = ReadFile(metrics);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(BalancedJson(report));
  EXPECT_NE(report.find("\"serve.jobs_submitted\":3"), std::string::npos);
  EXPECT_NE(report.find("\"serve.jobs_ok\":3"), std::string::npos);
  // Exact hit/miss counts vary with scheduling (concurrent first touches
  // may both miss); the instruments must exist either way.
  EXPECT_NE(report.find("\"serve.cache.misses\""), std::string::npos);
  EXPECT_NE(report.find("\"serve.cache.hits\""), std::string::npos);
  EXPECT_NE(report.find("\"serve.job_millis\""), std::string::npos);
  EXPECT_NE(report.find("\"exec.pool.tasks_submitted\""), std::string::npos);

  std::remove(log1.c_str());
  std::remove(log2.c_str());
  std::remove(jobs.c_str());
  std::remove(results.c_str());
  std::remove(metrics.c_str());
}

TEST(ServeSmokeTest, ErrorJobsRenderAsErrorLinesWithExitZero) {
  const std::string dir = TempDir();
  const std::string jobs = dir + "/serve_smoke_badjobs.ndjson";
  const std::string results = dir + "/serve_smoke_badresults.ndjson";
  WriteFile(jobs,
            "{\"id\":\"nope\",\"log1\":\"/no/such/file.txt\","
            "\"log2\":\"/no/such/other.txt\"}\n"
            "this is not json\n");

  const std::string cmd = std::string(EMS_SERVE_BINARY) + " < " + jobs +
                          " > " + results + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(results);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(BalancedJson(l)) << l;
    EXPECT_NE(l.find("\"status\":\"error\""), std::string::npos) << l;
  }

  std::remove(jobs.c_str());
  std::remove(results.c_str());
}

// The telemetry plane end to end: admin commands answered on the job
// stream and a --stats-out exposition file written by the background
// exporter (final write on shutdown covers short runs).
TEST(ServeSmokeTest, StatsIntervalWritesExpositionAndAdminCommandsAnswer) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/serve_stats_log1.txt";
  const std::string log2 = dir + "/serve_stats_log2.txt";
  const std::string jobs = dir + "/serve_stats_jobs.ndjson";
  const std::string results = dir + "/serve_stats_results.ndjson";
  const std::string stats_out = dir + "/serve_stats_exposition.prom";
  std::remove(stats_out.c_str());
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\n");
  WriteFile(log2, "a;b;c;d\na;c;b;d\nb;c;d\n");

  std::ostringstream job_lines;
  const std::string pair =
      "\"log1\":\"" + log1 + "\",\"log2\":\"" + log2 + "\"";
  job_lines << "{\"id\":\"j1\"," << pair << ",\"labels\":\"none\"}\n";
  job_lines << "{\"cmd\":\"stats\",\"id\":\"s1\"}\n";
  job_lines << "{\"id\":\"j2\"," << pair << ",\"labels\":\"none\"}\n";
  job_lines << "{\"cmd\":\"health\",\"id\":\"h1\"}\n";
  job_lines << "{\"cmd\":\"slow\",\"id\":\"sl1\"}\n";
  WriteFile(jobs, job_lines.str());

  const std::string cmd = std::string(EMS_SERVE_BINARY) + " --threads=2" +
                          " --stats-out=" + stats_out +
                          " --stats-interval=30 --log-level=error < " + jobs +
                          " > " + results + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(results);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);  // 2 jobs + 3 admin responses
  std::string all;
  for (const std::string& l : lines) {
    EXPECT_TRUE(BalancedJson(l)) << l;
    all += l;
    all += '\n';
  }
  EXPECT_NE(all.find("\"id\":\"s1\""), std::string::npos);
  EXPECT_NE(all.find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(all.find("\"id\":\"h1\""), std::string::npos);
  EXPECT_NE(all.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(all.find("\"id\":\"sl1\""), std::string::npos);
  EXPECT_NE(all.find("\"flight_recorder\""), std::string::npos);

  // The exporter's shutdown write landed even though the interval (30s)
  // never elapsed, and the document is exposition text, not JSON.
  const std::string exposition = ReadFile(stats_out);
  ASSERT_FALSE(exposition.empty());
  EXPECT_NE(exposition.find("# TYPE serve_jobs_ok_total counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("serve_jobs_ok_total 2"), std::string::npos);
  EXPECT_NE(exposition.find("# TYPE serve_latency_ms_ok summary"),
            std::string::npos);
  EXPECT_NE(exposition.find("serve_latency_ms_ok{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("le=\"+Inf\""), std::string::npos);
  // No half-written temp file left behind.
  EXPECT_FALSE(std::ifstream(stats_out + ".tmp").good());

  std::remove(log1.c_str());
  std::remove(log2.c_str());
  std::remove(jobs.c_str());
  std::remove(results.c_str());
  std::remove(stats_out.c_str());
}

// --log-level gates the structured stderr stream: error keeps it silent
// on a clean run, debug emits JSON event lines.
TEST(ServeSmokeTest, LogLevelControlsStderrVerbosity) {
  const std::string dir = TempDir();
  const std::string jobs = dir + "/serve_log_jobs.ndjson";
  const std::string err_quiet = dir + "/serve_log_quiet.stderr";
  const std::string err_debug = dir + "/serve_log_debug.stderr";
  WriteFile(jobs, "{\"cmd\":\"health\",\"id\":\"h\"}\n");

  const std::string quiet_cmd = std::string(EMS_SERVE_BINARY) +
                                " --log-level=error < " + jobs +
                                " > /dev/null 2> " + err_quiet;
  ASSERT_EQ(std::system(quiet_cmd.c_str()), 0) << quiet_cmd;
  EXPECT_EQ(ReadFile(err_quiet), "");

  const std::string debug_cmd = std::string(EMS_SERVE_BINARY) +
                                " --log-level=debug < " + jobs +
                                " > /dev/null 2> " + err_debug;
  ASSERT_EQ(std::system(debug_cmd.c_str()), 0) << debug_cmd;
  const std::string debug_log = ReadFile(err_debug);
  ASSERT_FALSE(debug_log.empty());
  // Every stderr line is one structured JSON event.
  std::istringstream events(debug_log);
  std::string event;
  while (std::getline(events, event)) {
    if (event.empty()) continue;
    EXPECT_TRUE(BalancedJson(event)) << event;
    EXPECT_NE(event.find("\"ts\":\""), std::string::npos) << event;
    EXPECT_NE(event.find("\"level\":\""), std::string::npos) << event;
    EXPECT_NE(event.find("\"msg\":\""), std::string::npos) << event;
  }
  EXPECT_NE(debug_log.find("stream done"), std::string::npos);

  // An invalid level is rejected with a usage error.
  const std::string bad_cmd = std::string(EMS_SERVE_BINARY) +
                              " --log-level=loud < /dev/null > /dev/null 2> "
                              "/dev/null";
  EXPECT_NE(std::system(bad_cmd.c_str()), 0);

  // So is a number that is not consumed in full: exit 2, empty stdout.
  const std::string bad_out = dir + "/serve_smoke_bad.out";
  for (const char* flag :
       {"--queue-size=1e3", "--threads=2abc", "--stats-interval=5s"}) {
    const std::string cmd = std::string(EMS_SERVE_BINARY) + " " + flag +
                            " < /dev/null > " + bad_out + " 2> /dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    EXPECT_EQ(ReadFile(bad_out), "") << cmd;
  }
  std::remove(bad_out.c_str());

  std::remove(jobs.c_str());
  std::remove(err_quiet.c_str());
  std::remove(err_debug.c_str());
}

// The --socket front end: a stale socket file left by a killed server is
// replaced, each client streams jobs and reads one line per request back,
// a second server on the live path is refused with exit 2, and SIGTERM
// drains to exit 0 and unlinks the socket.
TEST(ServeSmokeTest, SocketFrontEndServesRefusesALivePathAndDrains) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/serve_sock_log1.txt";
  const std::string log2 = dir + "/serve_sock_log2.txt";
  const std::string path =
      dir + "/serve_sock_" + std::to_string(::getpid()) + ".sock";
  ASSERT_LT(path.size(), sizeof(sockaddr_un{}.sun_path)) << path;
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\n");
  WriteFile(log2, "a;b;c;d\na;c;b;d\nb;c;d\n");

  // A stale socket: bound, then its owner went away without unlinking.
  std::remove(path.c_str());
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    path.copy(addr.sun_path, path.size());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd);
  }
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_FALSE(net::ConnectUnix(path).ok());  // nobody listens

  const std::string socket_flag = "--socket=" + path;
  std::vector<std::string> args = {EMS_SERVE_BINARY, socket_flag,
                                   "--threads=2", "--log-level=error"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t server = -1;
  ASSERT_EQ(::posix_spawn(&server, EMS_SERVE_BINARY, nullptr, nullptr,
                          argv.data(), environ),
            0);

  // The server replaced the stale file once a connect succeeds.
  Result<int> conn = Status::IOError("not started");
  for (int i = 0; i < 200 && !conn.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    conn = net::ConnectUnix(path);
  }
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const std::string pair =
      "\"log1\":\"" + log1 + "\",\"log2\":\"" + log2 + "\"";
  ASSERT_TRUE(net::WriteAll(*conn, "{\"id\":\"j1\"," + pair +
                                       ",\"labels\":\"none\"}\n"
                                       "{\"id\":\"j2\"," +
                                       pair +
                                       "}\n"
                                       "{\"cmd\":\"stats\",\"id\":\"s1\"}\n")
                  .ok());
  ::shutdown(*conn, SHUT_WR);  // end of session: the server answers all
  std::vector<std::string> lines;
  net::FdLineReader reader(*conn);
  for (std::string line; reader.ReadLine(&line);) lines.push_back(line);
  ::close(*conn);
  ASSERT_EQ(lines.size(), 3u);
  std::string all;
  for (const std::string& l : lines) {
    EXPECT_TRUE(BalancedJson(l)) << l;
    EXPECT_NE(l.find("\"status\":\"ok\""), std::string::npos) << l;
    all += l + "\n";
  }
  EXPECT_NE(all.find("{\"id\":\"j1\""), std::string::npos);
  EXPECT_NE(all.find("{\"id\":\"j2\""), std::string::npos);
  EXPECT_NE(all.find("{\"id\":\"s1\""), std::string::npos);
  EXPECT_NE(all.find("\"cmd\":\"stats\""), std::string::npos);

  // A second server must not steal a path a live server answers on.
  const std::string second = std::string(EMS_SERVE_BINARY) + " " +
                             socket_flag + " < /dev/null > /dev/null 2>&1";
  const int refused = std::system(second.c_str());
  ASSERT_TRUE(WIFEXITED(refused)) << second;
  EXPECT_EQ(WEXITSTATUS(refused), 2) << second;
  Result<int> still = net::ConnectUnix(path);  // the first still serves
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  ::close(*still);

  ASSERT_EQ(::kill(server, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(server, &status, 0), server);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(::stat(path.c_str(), &st), 0);  // unlinked on the way out

  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

}  // namespace
}  // namespace ems
