#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

// A fixed, memory-bound reference task that measures how fast the host
// is at the moment, independent of jpar. On a shared host the time of
// the same task drifts by tens of percent within seconds and over
// minutes, and jpar's query times drift with it. The workloads run the
// task at fixed points of the window, while jpar is idle, and the
// benchmark divides its time metrics by the host factor (the task's
// median time over its nominal time), so that two runs minutes apart
// compare the program, not the host.

#include <cstdint>
#include <vector>

namespace perfbench {

/// A fixed scale, in ms: adjusted times are the times the program
/// would take on a host where one repetition of the reference task
/// takes this long. Measured repetitions took 9–16 ms.
inline constexpr double kReferenceNominalMs = 16.0;

/// Not thread-safe: one thread samples at a time, while no query runs.
class HostReference {
 public:
  /// Allocates and touches the task's tables. `threads` is the number
  /// of threads of the task's parallel part.
  explicit HostReference(int threads);

  /// Runs the task `reps` times and records each repetition's wall time.
  /// One repetition is a single-threaded pass of random increments over
  /// a 16 MiB table, then three rounds in which each of the threads
  /// makes random increments over its own 4 MiB table. Both tables
  /// exceed a core's L2 cache, so the task depends on the shared cache
  /// and memory as the engine's scans, group-bys and joins do.
  void Sample(int reps);

  /// Every repetition's time, in ms, in order.
  const std::vector<double>& samples() const { return samples_; }
  /// The wall time spent in Sample, in ms.
  double total_ms() const { return total_ms_; }
  /// Median repetition time over kReferenceNominalMs; 1 before any
  /// sample.
  double Factor() const;

 private:
  std::vector<uint32_t> single_;
  std::vector<std::vector<uint32_t>> own_;
  std::vector<uint64_t> sums_;  // keeps the increments observable
  std::vector<double> samples_;
  double total_ms_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
