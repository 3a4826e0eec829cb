#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Checks of engine outputs against the generator's truth, and checks of
// the engine's own counters along paths that do not share its code.
// Each returns an empty string when the check passes and a one-line
// reason when it fails.

#include <cstdint>
#include <string>
#include <vector>

#include "corpus.h"
#include "json/item.h"
#include "queries.h"
#include "runtime/stats.h"

namespace perfbench {

class AnswerChecker {
 public:
  explicit AnswerChecker(const Truth& truth);

  /// Q0/Q0b: exactly the qualifying dates, as a multiset (Q0 returns
  /// whole measurement objects; their "date" fields are compared).
  /// Q1/Q1b: the TMIN count per date, as a multiset, summing to the
  /// TMIN records written. Q2: the average from the integer sums.
  std::string Check(QueryId query, const std::vector<jpar::Item>& items) const;

  /// items_scanned and bytes_scanned equal the measurements and the
  /// corpus bytes written, times the query's scans. Only meaningful
  /// when every file is scanned as text (no warm storage tier).
  std::string CheckScanCounts(QueryId query,
                              const jpar::ExecStats& stats) const;

 private:
  const Truth& truth_;
  std::vector<int64_t> q1_counts_;
  double q2_ = 0;
  bool q2_defined_ = false;
};

/// Each stage's slowest partition plus its exchange time, summed over
/// the stages of one query.
double StageTotalMs(const jpar::ExecStats& stats);

/// The engine's stage times for one query (each stage's slowest
/// partition plus its exchange time) add up to no more than the
/// benchmark's own wall-clock span around the call that ran it.
std::string CheckStageTimes(const jpar::ExecStats& stats, double span_ms);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
