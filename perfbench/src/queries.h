#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

// The paper's five evaluation queries (Listings 7-11, §5.2), verbatim.
// This is a frozen copy of bench/queries.h: the benchmark owns its
// workloads, so an edit elsewhere in the tree cannot change what it
// measures.

namespace perfbench {

enum QueryId { kQ0 = 0, kQ0b, kQ1, kQ1b, kQ2, kQueryCount };

struct Query {
  const char* name;
  const char* text;
  int scans;  // DATASCANs the query runs over the whole collection
};

inline constexpr Query kQueries[kQueryCount] = {
    {"Q0", R"(
  for $r in collection("/sensors")("root")()("results")()
  let $datetime := dateTime(data($r("date")))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)", 1},
    {"Q0b", R"(
  for $r in collection("/sensors")("root")()("results")()("date")
  let $datetime := dateTime(data($r))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)", 1},
    {"Q1", R"(
  for $r in collection("/sensors")("root")()("results")()
  where $r("dataType") eq "TMIN"
  group by $date := $r("date")
  return count($r("station")))", 1},
    {"Q1b", R"(
  for $r in collection("/sensors")("root")()("results")()
  where $r("dataType") eq "TMIN"
  group by $date := $r("date")
  return count(for $i in $r return $i("station")))", 1},
    {"Q2", R"(
  avg(
    for $r_min in collection("/sensors")("root")()("results")()
    for $r_max in collection("/sensors")("root")()("results")()
    where $r_min("station") eq $r_max("station")
      and $r_min("date") eq $r_max("date")
      and $r_min("dataType") eq "TMIN"
      and $r_max("dataType") eq "TMAX"
    return $r_max("value") - $r_min("value")
  ) div 10)", 2},
};

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
