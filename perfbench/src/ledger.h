// Helpers of the performance ledger that carry no workload logic: order
// statistics and the tail rule, the process CPU clock, the span ledger
// of the traced run and self time, response normalization before
// digesting, the seeded request sampler of serve_mixed, and the check
// that a result carries every metric BENCHMARK.json lists. Unit-tested
// in perfbench/tests/ledger_test.cc.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Order statistics

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the value at
/// rank ceil(p/100 * n) of the sorted samples. 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 50).
double Median(std::vector<double> samples);

/// Median of the samples strictly beyond the nearest-rank percentile
/// `p` (the SamplesBeyond(n, p) largest): the typical cost of the
/// costliest ops. The largest sample when none is beyond, 0 when empty.
/// Unlike the percentile itself it does not jump when `p` falls on the
/// edge between a cheap and a costly kind of op, and unlike their mean
/// a few ops disturbed by the host do not move it.
double MedianBeyond(std::vector<double> samples, double p);

/// Mean over the non-empty groups of each group's median; 0 when all
/// are empty. The batch workloads group op times by pair: the pairs
/// differ several-fold in cost, and a pooled median sits on whichever
/// pair is middle, moving with that one pair's noise.
double MeanOfMedians(const std::vector<std::vector<double>>& groups);

/// Samples strictly above the nearest-rank p-th percentile of `n`
/// samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// The tail rule of op_cost_tail: the highest percentile of
/// {50, 75, 90, 95, 99, 99.9} that leaves at least `min_beyond` samples
/// beyond it at `n` samples; 50 when none does.
double TailPercentileFor(size_t n, size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// CPU time

/// \brief Stopwatch over the CPU time of the whole process (user + system,
/// every thread), in the manner of ems::Timer.
///
/// The gated timings of the ledger are CPU time, not wall time: on a
/// shared virtual machine the hypervisor's steal time and neighbours'
/// load move wall time by tens of percent between runs of the same code,
/// while the kernel's CPU accounting leaves steal out.
class CpuTimer {
 public:
  CpuTimer() : start_ms_(NowMs()) {}
  double ElapsedMillis() const { return NowMs() - start_ms_; }
  /// CPU time of this process so far, in milliseconds.
  static double NowMs();

 private:
  double start_ms_;
};

// ---------------------------------------------------------------------------
// Spans of the traced run

/// One recorded interval. Times are milliseconds since the ledger's
/// epoch; `parent` indexes the ledger's span list (-1 for a root); `op`
/// groups the spans of one operation.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  uint64_t op = 0;
};

/// Self time of `spans[index]`: its duration minus the part of its
/// interval covered by the union of its children (children may
/// overlap each other; parts outside the parent are ignored).
double SelfTimeMs(const std::vector<Span>& spans, size_t index);

/// \brief In-memory span store, written out once at exit.
///
/// Thread-safe. Scoped spans nest per calling thread through `Scope`;
/// Add records an interval measured elsewhere (the open-loop generator
/// stamps request spans after the response arrives).
class SpanLedger {
 public:
  SpanLedger();

  /// Milliseconds since construction.
  double NowMs() const;

  /// Records a finished span; returns its index.
  int Add(std::string name, double start_ms, double end_ms, int parent,
          uint64_t op);

  /// RAII span: opens at construction under the innermost open Scope of
  /// the same ledger on this thread, closes at End() or destruction.
  class Scope {
   public:
    Scope(SpanLedger* ledger, std::string name, uint64_t op);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void End();

   private:
    SpanLedger* ledger_;
    int index_ = -1;
    int saved_open_ = -1;
    bool open_ = true;
  };

  /// Marks every span of `op` as not counting (its output failed the
  /// reference check). Kept in the written trace, flagged.
  void Discard(uint64_t op);

  /// Per-op self time of the spans named `name`, summed within each
  /// counted op: op -> ms.
  std::map<uint64_t, double> SelfTimeByOp(const std::string& name) const;

  /// Per-op duration of the spans named `name` (roots, typically).
  std::map<uint64_t, double> DurationByOp(const std::string& name) const;

  std::vector<Span> Snapshot() const;

  /// Writes {"spans": [{name, start_ms, end_ms, parent, op, counted}]}.
  ems::Status WriteJson(const std::string& path) const;

 private:
  int Open(std::string name, int parent, uint64_t op);
  void Close(int index);

  double epoch_ms_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<uint64_t> discarded_ops_;
};

// ---------------------------------------------------------------------------
// Output normalization

/// Removes the members named in `drop` from the top level of a JSON
/// object text and returns the remaining members, byte for byte, in
/// order and comma-joined. InvalidArgument when `json` is not an object.
ems::Result<std::string> DropTopLevelKeys(std::string_view json,
                                          const std::vector<std::string>& drop);

/// XXH64 of a response with its per-request fields ("id", "millis")
/// removed: equal digests mean equal results.
ems::Result<uint64_t> NormalizedDigest(std::string_view json);

// ---------------------------------------------------------------------------
// Seeded sampling

/// 53-bit uniform doubles, exponential gaps and Zipf ranks from a
/// seeded mt19937_64 — no std:: distribution objects, so the draws are
/// the same on every standard library.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : engine_(seed) {}
  double Uniform();                       // [0, 1)
  double Exponential(double rate);        // mean 1 / rate
  size_t Index(size_t n);                 // [0, n)

 private:
  std::mt19937_64 engine_;
};

/// One serve_mixed request: a static match (plain or "prob":true) on a
/// corpus pair drawn Zipf(s) by rank, or an append to a live pair.
struct JobDraw {
  enum class Kind { kPlain, kProb, kAppend };
  Kind kind = Kind::kPlain;
  int pair = 0;  // static pair index; unused for appends
};

/// \brief The request sampler: job kind by the mix, pair by Zipf rank.
class JobSampler {
 public:
  JobSampler(uint64_t seed, int num_pairs, double zipf_s, double prob_share,
             double append_share);
  JobDraw Next();

 private:
  SeededRng rng_;
  std::vector<double> cumulative_;  // Zipf CDF over ranks
  double prob_share_;
  double append_share_;
};

// ---------------------------------------------------------------------------
// Metrics and their coverage

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// (name, unit) of each metric BENCHMARK.json lists under `section`
/// ("end_to_end" or "per_layer").
ems::Result<std::vector<std::pair<std::string, std::string>>> ListedMetrics(
    const std::string& benchmark_json, const std::string& section);

/// OK iff `emitted` holds exactly the listed metrics, each with its
/// listed unit and a finite value; otherwise names the first offender.
ems::Status CheckCoverage(
    const std::vector<std::pair<std::string, std::string>>& listed,
    const MetricMap& emitted);

}  // namespace perfbench
