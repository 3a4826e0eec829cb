#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads. Each drives jpar only through its public calls,
// runs a counted warm-up, then whole rounds of the five paper queries
// until the timed window has lasted the requested seconds, and checks
// every answer against the generator's truth.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "corpus.h"
#include "host_speed.h"
#include "queries.h"
#include "runtime/stats.h"
#include "service/plan_cache.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One completed query of the timed window.
struct Observation {
  QueryId query = kQ0;
  double wall_ms = 0;         // as the client sees it
  double compile_ms = -1;     // Engine::Compile; -1 under the service
  double execute_ms = 0;      // the call that ran the compiled plan
  double queue_wait_ms = -1;  // Submit until the worker starts it
  jpar::ExecStats stats;
};

struct WorkloadConfig {
  double seconds = 10;
  std::string dir;         // the run's temporary directory
  std::string worker_bin;  // jpar_worker, for the distributed workload
  SpanLog* spans = nullptr;
  HostReference* reference = nullptr;  // sampled in the window
};

struct WorkloadResult {
  Clock::time_point window_open;
  double window_s = 0;
  double input_write_s = 0;         // writing corpus files, not set-up
  double steal_pct = 0;  // host CPU time stolen by the hypervisor, window
  std::vector<Observation> window;  // successful queries, in the window
  std::vector<Observation> warmup;  // successful warm-up queries, in order
  uint64_t attempted = 0;           // queries started in the window
  uint64_t failed = 0;              // of those, ended with an error
  uint64_t wrong = 0;               // failed checks, any phase
  std::vector<std::string> errors;  // the first failed checks and errors
  jpar::PlanCacheStats plan_cache;  // warm_service only
  std::string describe;             // one line on the set-up
};

struct Workload {
  const char* name;
  /// Runs the workload over `corpus`. A non-empty return is a set-up
  /// failure; the run then prints no result.
  std::string (*run)(const Corpus& corpus, const WorkloadConfig& config,
                     WorkloadResult* result);
};

/// Busy threads never exceed the host's cores, capped at 4.
int Cores();

/// adhoc, warm_service or distributed; null for any other name.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
