// The reference kernel: a fixed piece of work that does not use the
// repository's code, timed beside the ops so that the ledger can report
// what an op costs relative to it.
//
// On a shared virtual machine the CPU time of the same op moves by
// 30-50% between runs minutes apart (neighbours on sibling hardware
// threads, shared caches and memory bandwidth). The kernel slows down
// with the host, and a change to the program leaves it alone.
#pragma once

#include <cstdint>
#include <vector>

#include "util/timer.h"

namespace perfbench {

/// Runs the kernel once and returns its checksum, the same on every call
/// (callers compare it, so the work cannot be optimised away). The kernel
/// mixes what the ops do: tokenising and hashing text (as parsing does),
/// dense floating-point fixpoints over a small and a large matrix (as
/// the EMS iteration does) and a chase of dependent loads (as graph and
/// hash-map code does). It allocates nothing once warm, so a change to
/// the program's allocator leaves it alone too.
uint64_t ReferenceKernel();

/// CPU seconds of one ReferenceKernel() run on the host the ledger was
/// calibrated on (a 4-vCPU Xeon VM, gcc 12.2, Release: the median over
/// 40 runs was 39 ms). setup_s is a set-up's cost in kernel runs times
/// this, i.e. its CPU time at that host's speed.
inline constexpr double kReferenceKernelSeconds = 0.040;

/// The CPU time of one op and when it started, on a ReferenceClock.
struct TimedCpu {
  double at_ms = 0.0;
  double cpu_ms = 0.0;
};

/// \brief Runs the reference kernel between a workload's ops and keeps
/// its CPU times, so that op costs can be given in kernel runs.
///
/// The kernel runs whenever it has had less than `share` of the wall
/// time since construction, so its runs spread evenly over the phase it
/// measures. Not thread-safe: one thread ticks it, between ops it times
/// alone.
class ReferenceClock {
 public:
  /// Runs the kernel once untimed (its buffers are built on first use).
  explicit ReferenceClock(double share = 0.1);

  /// Runs the kernel if it has had less than its share so far.
  void Tick();

  /// Milliseconds since construction: the time base of KernelMsAt.
  double NowMs() const { return since_.ElapsedMillis(); }

  /// Median CPU ms of one kernel run; 0 before the first.
  double KernelMs() const;

  /// Median CPU ms of the (up to) kNearest kernel runs nearest to
  /// `at_ms`: the host's speed drifts within seconds, so an op is set
  /// against the kernel runs around it. 0 before the first run.
  double KernelMsAt(double at_ms) const;
  static constexpr size_t kNearest = 3;

  /// `cpu_ms` spent at `at_ms`, in kernel runs; 0 before the first run.
  double CostAt(double cpu_ms, double at_ms) const;
  double CostOf(const TimedCpu& op) const {
    return CostAt(op.cpu_ms, op.at_ms);
  }

  size_t runs() const { return runs_.size(); }

  /// False when some run returned another checksum than the first.
  bool consistent() const { return consistent_; }

 private:
  double share_;
  ems::Timer since_;
  double kernel_wall_ms_ = 0.0;
  struct Run {
    double at_ms;  // midpoint, on NowMs()
    double cpu_ms;
  };
  std::vector<Run> runs_;
  uint64_t checksum_ = 0;
  bool consistent_ = true;
};

}  // namespace perfbench
