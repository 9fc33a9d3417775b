// Probabilistic matching over the serving wire protocol: jobs with
// "prob":true get per-correspondence confidences and a "prob" stats
// object; jobs without stay byte-identical to the pre-prob protocol
// (no stray keys); bad prob parameters are rejected at parse time.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/context.h"
#include "serve/service.h"
#include "util/json_parser.h"

namespace ems {
namespace serve {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

std::string WriteTraceLog(const std::string& name, const std::string& body) {
  const std::string path = TempDir() + "/" + name;
  std::ofstream out(path);
  EXPECT_TRUE(out) << path;
  out << body;
  return path;
}

std::string StripMillis(std::string line) {
  const size_t pos = line.find("\"millis\":");
  if (pos == std::string::npos) return line;
  const size_t end = line.find(',', pos);
  line.erase(pos, end == std::string::npos ? std::string::npos : end - pos + 1);
  return line;
}

class ServeProbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log1_ = WriteTraceLog("serve_prob_1.txt",
                          "a;b;c;d\na;b;d\na;c;d\na;b;c;d\n");
    log2_ = WriteTraceLog("serve_prob_2.txt",
                          "a;b;c;d\na;c;b;d\nb;c;d\na;b;c;d\n");
  }
  void TearDown() override {
    std::remove(log1_.c_str());
    std::remove(log2_.c_str());
  }
  std::string Job(const std::string& extra) const {
    return R"({"id":"j","log1":")" + log1_ + R"(","log2":")" + log2_ +
           R"(","labels":"none")" + extra + "}";
  }
  std::string log1_, log2_;
};

TEST_F(ServeProbTest, ProbJobCarriesConfidencesAndStats) {
  ServiceOptions options;
  BatchMatchService service(options);
  const std::string line = service.HandleJobLine(Job(R"(,"prob":true)"));
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(line.find("\"confidence\":"), std::string::npos);
  EXPECT_NE(line.find("\"prob\":{"), std::string::npos);
  EXPECT_NE(line.find("\"iterations\":"), std::string::npos);
  EXPECT_NE(line.find("\"converged\":"), std::string::npos);
  EXPECT_NE(line.find("\"mean_entropy\":"), std::string::npos);
  // The line stays parseable JSON.
  EXPECT_TRUE(ParseJson(line).ok());
}

TEST_F(ServeProbTest, ProbOffIsByteIdenticalToPreProbProtocol) {
  ServiceOptions options;
  BatchMatchService service(options);
  const std::string off = service.HandleJobLine(Job(""));
  const std::string explicit_off =
      service.HandleJobLine(Job(R"(,"prob":false)"));
  // No prob keys leak into the default path…
  EXPECT_EQ(off.find("\"prob\""), std::string::npos);
  EXPECT_EQ(off.find("\"confidence\""), std::string::npos);
  // …and an explicit prob:false renders the very same bytes.
  EXPECT_EQ(StripMillis(off), StripMillis(explicit_off));
}

TEST_F(ServeProbTest, ProbTuningKnobsAreHonored) {
  ServiceOptions options;
  BatchMatchService service(options);
  // A hopeless tolerance with a cap of 1 iteration cannot converge.
  const std::string line = service.HandleJobLine(
      Job(R"(,"prob":true,"prob_tol":1e-300,"prob_iters":1)"));
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(line.find("\"iterations\":1"), std::string::npos);
  EXPECT_NE(line.find("\"converged\":false"), std::string::npos);
}

TEST_F(ServeProbTest, BadProbParametersAreRejected) {
  ServiceOptions options;
  BatchMatchService service(options);
  for (const char* extra :
       {R"(,"prob":true,"prob_temp":0)", R"(,"prob":true,"prob_temp":-1)",
        R"(,"prob":true,"prob_tol":0)", R"(,"prob":true,"prob_iters":0)",
        R"(,"prob":true,"prob_min_confidence":1.5)",
        R"(,"prob":true,"prob_min_confidence":-0.1)", R"(,"prob":"yes")",
        R"(,"prob":true,"prob_iters":2.5)",
        R"(,"prob":true,"prob_tol":"1e-3")"}) {
    const std::string line = service.HandleJobLine(Job(extra));
    EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos) << extra;
  }
}

TEST_F(ServeProbTest, ProbMetricsLandInTheServiceRegistry) {
  ObsContext obs;
  ServiceOptions options;
  options.obs = &obs;
  BatchMatchService service(options);
  service.HandleJobLine(Job(R"(,"prob":true)"));
  service.HandleJobLine(Job(R"(,"prob":true)"));
  EXPECT_EQ(obs.metrics.CounterValue("prob.runs"), 2u);
  EXPECT_GT(obs.metrics.CounterValue("prob.iterations"), 0u);
  EXPECT_LE(obs.metrics.CounterValue("prob.converged_runs"), 2u);
}

}  // namespace
}  // namespace serve
}  // namespace ems
