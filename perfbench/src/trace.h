#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into jpar's public
// API (traced runs only). Spans are kept in memory and written out once,
// at exit, as JSON lines.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;    // 0 = a root span
  int64_t query_id = 0;  // shared by every span of one query; 0 = none
  double start_ms = 0;   // since the SpanLog was made
  double end_ms = 0;
};

/// Thread-safe. A disabled log records nothing and costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  double NowMs() const;
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Span span);

  /// Each span's duration minus the part of it its children cover,
  /// grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimes() const;
  /// One JSON object per line; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent,
             int64_t query_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
