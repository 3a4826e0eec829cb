#include "checks.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

AnswerChecker::AnswerChecker(const Truth& truth)
    : truth_(truth), q1_counts_(truth.Q1Counts()) {
  q2_defined_ = truth.Q2Expected(&q2_);
}

std::string AnswerChecker::Check(QueryId query,
                                 const std::vector<jpar::Item>& items) const {
  const std::string name = kQueries[query].name;
  switch (query) {
    case kQ0:
    case kQ0b: {
      std::vector<std::string> dates;
      dates.reserve(items.size());
      for (const jpar::Item& item : items) {
        std::optional<jpar::Item> date =
            query == kQ0 ? item.GetField("date") : std::optional(item);
        if (!date.has_value() || !date->is_string()) {
          return name + ": result item without a date string: " +
                 item.ToJsonString();
        }
        dates.push_back(date->string_value());
      }
      std::sort(dates.begin(), dates.end());
      if (dates != truth_.q0_dates) {
        return name + ": " + std::to_string(dates.size()) +
               " dates differ from the " +
               std::to_string(truth_.q0_dates.size()) + " qualifying ones";
      }
      return "";
    }
    case kQ1:
    case kQ1b: {
      std::vector<int64_t> counts;
      counts.reserve(items.size());
      int64_t total = 0;
      for (const jpar::Item& item : items) {
        if (!item.is_int64()) {
          return name + ": non-integer count " + item.ToJsonString();
        }
        counts.push_back(item.int64_value());
        total += item.int64_value();
      }
      if (total != static_cast<int64_t>(truth_.tmin_records)) {
        return name + ": counts sum to " + std::to_string(total) + ", not " +
               std::to_string(truth_.tmin_records) + " TMIN records";
      }
      std::sort(counts.begin(), counts.end());
      if (counts != q1_counts_) {
        return name + ": per-date TMIN counts differ (" +
               std::to_string(counts.size()) + " groups, expected " +
               std::to_string(q1_counts_.size()) + ")";
      }
      return "";
    }
    case kQ2: {
      if (!q2_defined_) {
        return items.empty() ? "" : name + ": expected the empty sequence";
      }
      if (items.size() != 1 || !items[0].is_numeric()) {
        return name + ": expected one number, got " +
               std::to_string(items.size()) + " items";
      }
      const double got = items[0].AsDouble();
      if (std::fabs(got - q2_) > 1e-9 * std::max(1.0, std::fabs(q2_))) {
        return name + ": " + std::to_string(got) + " != " +
               std::to_string(q2_);
      }
      return "";
    }
    default:
      return "unknown query";
  }
}

std::string AnswerChecker::CheckScanCounts(
    QueryId query, const jpar::ExecStats& stats) const {
  const uint64_t scans = static_cast<uint64_t>(kQueries[query].scans);
  const std::string name = kQueries[query].name;
  if (stats.items_scanned != truth_.measurements * scans) {
    return name + ": items_scanned " + std::to_string(stats.items_scanned) +
           " != " + std::to_string(truth_.measurements) + " x " +
           std::to_string(scans);
  }
  if (stats.bytes_scanned != truth_.bytes * scans) {
    return name + ": bytes_scanned " + std::to_string(stats.bytes_scanned) +
           " != " + std::to_string(truth_.bytes) + " x " +
           std::to_string(scans);
  }
  return "";
}

double StageTotalMs(const jpar::ExecStats& stats) {
  double staged = 0;
  for (const jpar::StageStats& stage : stats.stages) {
    staged += stage.MaxPartitionMs() + stage.exchange_ms;
  }
  return staged;
}

std::string CheckStageTimes(const jpar::ExecStats& stats, double span_ms) {
  const double staged = StageTotalMs(stats);
  if (staged > span_ms) {
    return "stage times " + std::to_string(staged) + " ms exceed the " +
           std::to_string(span_ms) + " ms span around the call";
  }
  return "";
}

}  // namespace perfbench
