#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace perfbench {

namespace {

constexpr size_t kSingleTableWords = size_t{1} << 22;  // 16 MiB
constexpr size_t kThreadTableWords = size_t{1} << 20;  // 4 MiB each
constexpr uint64_t kSingleSteps = 1000000;
constexpr uint64_t kThreadSteps = 300000;
constexpr int kThreadRounds = 3;

/// Random increments over `table` (a power-of-two size), driven by a
/// fixed xorshift sequence. Returns a sum so the work is not elided.
uint64_t Increments(std::vector<uint32_t>* table, uint64_t steps) {
  uint64_t x = 88172645463325252ull;
  uint64_t sum = 0;
  const uint64_t mask = table->size() - 1;
  for (uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += ++(*table)[x & mask];
  }
  return sum;
}

}  // namespace

HostReference::HostReference(int threads)
    : single_(kSingleTableWords, 1),
      own_(static_cast<size_t>(threads),
           std::vector<uint32_t>(kThreadTableWords, 1)),
      sums_(static_cast<size_t>(threads) + 1, 0) {}

void HostReference::Sample(int reps) {
  using Clock = std::chrono::steady_clock;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    sums_[0] += Increments(&single_, kSingleSteps);
    for (int round = 0; round < kThreadRounds; ++round) {
      std::vector<std::thread> workers;
      for (size_t t = 0; t < own_.size(); ++t) {
        workers.emplace_back(
            [this, t] { sums_[t + 1] += Increments(&own_[t], kThreadSteps); });
      }
      for (std::thread& w : workers) w.join();
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    samples_.push_back(ms);
    total_ms_ += ms;
  }
}

double HostReference::Factor() const {
  if (samples_.empty()) return 1;
  std::vector<double> v = samples_;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double median =
      n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return median / kReferenceNominalMs;
}

}  // namespace perfbench
