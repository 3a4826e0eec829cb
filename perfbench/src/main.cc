// End-to-end benchmark of jpar: runs one workload for a timed window and
// prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run records
// spans around its calls into jpar and prints the per-layer metrics.
//
//   perfbench --workload adhoc --seed 1 --seconds 20 --trace 0 --dir DIR
//
// perfbench/run.py builds this binary and makes DIR; see
// perfbench/README.md for the workloads and metrics.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "corpus.h"
#include "host_speed.h"
#include "json/projecting_reader.h"
#include "json/structural_index.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string span_file;
  std::string worker_bin = PERFBENCH_WORKER_BIN;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--span-file") {
      args->span_file = value;
    } else if (key == "--worker-bin") {
      args->worker_bin = value;
    } else if (key == "--revision") {
      args->revision = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return !args->workload.empty() && !args->dir.empty() && args->seconds > 0;
}

/// Every JPAR_DISABLE_* override silently changes what is measured.
std::string DisableOverride() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "JPAR_DISABLE_", 13) == 0) return *e;
  }
  return "";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest of p75/p90/p95/p99 with at least ten samples above it;
/// 0 (none) below forty samples.
double TailPercentile(size_t samples) {
  double best = 0;
  for (double p : {75.0, 90.0, 95.0, 99.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) best = p;
  }
  return best;
}

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

std::string Number(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Sums `field` over the stages whose name passes `select`.
double StageSum(const jpar::ExecStats& stats,
                const std::function<bool(const std::string&)>& select,
                const std::function<double(const jpar::StageStats&)>& field) {
  double sum = 0;
  for (const jpar::StageStats& s : stats.stages) {
    if (select(s.name)) sum += field(s);
  }
  return sum;
}

/// The window's wall times of query `q`.
std::vector<double> WallMs(const WorkloadResult& result, int q) {
  std::vector<double> wall;
  for (const Observation& o : result.window) {
    if (o.query == q) wall.push_back(o.wall_ms);
  }
  return wall;
}

/// The end-to-end metrics. Times are divided by `host_factor` (and the
/// rate multiplied by it): they are the times at the reference task's
/// nominal speed.
std::vector<Metric> EndToEnd(const WorkloadResult& result, double setup_s,
                             double host_factor) {
  std::vector<Metric> metrics;
  for (int q = 0; q < kQueryCount; ++q) {
    metrics.push_back({std::string(kQueries[q].name) + "_ms",
                       Median(WallMs(result, q)) / host_factor, "ms"});
  }
  metrics.push_back({"qps",
                     static_cast<double>(result.window.size()) /
                         result.window_s * host_factor,
                     "1/s"});
  metrics.push_back({"setup_s", setup_s / host_factor, "s"});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return metrics;
}

constexpr int kThroughputPasses = 3;

/// Median MB/s of kThroughputPasses passes of `fn` over every corpus
/// file.
double Throughput(const Corpus& corpus, SpanLog* spans, const char* name,
                  const std::function<void(const std::string&)>& fn) {
  std::vector<double> mb_s;
  for (int pass = 0; pass < kThroughputPasses; ++pass) {
    uint64_t bytes = 0;
    const Clock::time_point start = Clock::now();
    for (const std::string& text : corpus.text) {
      ScopedSpan span(spans, name, 0, 0);
      fn(text);
      bytes += text.size();
    }
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    mb_s.push_back(static_cast<double>(bytes) / 1e6 / s);
  }
  return Median(mb_s);
}

/// The per-layer metrics of a traced run. The dist counters exist only
/// on the distributed workload.
std::vector<Metric> PerLayer(const Corpus& corpus, WorkloadResult* run,
                             SpanLog* spans, bool distributed) {
  const WorkloadResult& result = *run;
  std::vector<Metric> metrics;
  // json: stage 1 and stage 2 alone, over the same corpus.
  uint64_t sink_items = 0;
  bool parsed = true;
  metrics.push_back(
      {"stage1_mb_s",
       Throughput(corpus, spans, "stage1",
                  [](const std::string& text) {
                    jpar::StructuralIndex index =
                        jpar::StructuralIndex::Build(text);
                    (void)index;
                  }),
       "MB/s"});
  const std::vector<jpar::PathStep> q0_path = {
      jpar::PathStep::Key("root"), jpar::PathStep::KeysOrMembers(),
      jpar::PathStep::Key("results"), jpar::PathStep::KeysOrMembers()};
  metrics.push_back(
      {"parse_mb_s",
       Throughput(corpus, spans, "parse",
                  [&](const std::string& text) {
                    parsed &= jpar::ProjectJsonStream(
                                  text, q0_path, [&](jpar::Item) {
                                    ++sink_items;
                                    return jpar::Status::OK();
                                  })
                                  .ok();
                  }),
       "MB/s"});
  // Every pass must deliver each measurement record once.
  if (!parsed || sink_items != corpus.truth.measurements * kThroughputPasses) {
    ++run->wrong;
    run->errors.push_back("ProjectJsonStream delivered " +
                          std::to_string(sink_items) + " items over " +
                          std::to_string(kThroughputPasses) + " passes, not " +
                          std::to_string(corpus.truth.measurements) +
                          " per pass");
  }

  // Per query: medians over the window of the engine's own counters.
  using Field = std::function<double(const Observation&)>;
  auto stage_ms = [](const char* prefix, bool busy) -> Field {
    return [prefix, busy](const Observation& o) {
      return StageSum(
          o.stats, [prefix](const std::string& n) { return StartsWith(n, prefix); },
          [busy](const jpar::StageStats& st) {
            return busy ? st.SumPartitionMs() : st.MaxPartitionMs();
          });
    };
  };
  auto exchange = [](bool bytes) -> Field {
    return [bytes](const Observation& o) {
      return StageSum(
          o.stats, [](const std::string&) { return true; },
          [bytes](const jpar::StageStats& st) {
            return bytes ? static_cast<double>(st.exchange_bytes)
                         : st.exchange_ms;
          });
    };
  };
  auto counter = [](uint64_t jpar::ExecStats::*field) -> Field {
    return [field](const Observation& o) {
      return static_cast<double>(o.stats.*field);
    };
  };
  // The part of the call's wall time that no stage reports.
  Field unstaged = [](const Observation& o) {
    return o.execute_ms - StageTotalMs(o.stats);
  };
  std::vector<std::tuple<const char*, const char*, Field>> per_query = {
      {"scan_wall_ms", "ms", stage_ms("DATASCAN", false)},
      {"scan_busy_ms", "ms", stage_ms("DATASCAN", true)},
      {"groupby_ms", "ms", stage_ms("group-by", false)},
      {"join_ms", "ms", stage_ms("hash-join", false)},
      {"pipeline_ms", "ms", stage_ms("pipeline", false)},
      {"exchange_ms", "ms", exchange(false)},
      {"exchange_bytes", "bytes", exchange(true)},
      {"unstaged_ms", "ms", unstaged},
      {"items_scanned", "count", counter(&jpar::ExecStats::items_scanned)},
      {"bytes_scanned", "bytes", counter(&jpar::ExecStats::bytes_scanned)},
      {"batches_emitted", "count", counter(&jpar::ExecStats::batches_emitted)},
      {"peak_retained_bytes", "bytes",
       counter(&jpar::ExecStats::peak_retained_bytes)},
  };
  if (distributed) {
    per_query.push_back(
        {"dist_rounds", "count", counter(&jpar::ExecStats::dist_rounds)});
    per_query.push_back(
        {"dist_frames", "count", counter(&jpar::ExecStats::dist_frames)});
    per_query.push_back(
        {"dist_bytes", "bytes", counter(&jpar::ExecStats::dist_bytes)});
  }
  for (int q = 0; q < kQueryCount; ++q) {
    for (const auto& [name, unit, field] : per_query) {
      std::vector<double> v;
      for (const Observation& o : result.window) {
        if (o.query == q) v.push_back(field(o));
      }
      metrics.push_back(
          {std::string(kQueries[q].name) + "." + name, Median(v), unit});
    }
  }

  // Whole-run figures.
  std::vector<double> compile, wait, exec;
  double tape_hits = 0, tape_builds = 0, columns = 0, stats_built = 0;
  for (const Observation& o : result.window) {
    if (o.compile_ms >= 0) compile.push_back(o.compile_ms);
    if (o.queue_wait_ms >= 0) {
      wait.push_back(o.queue_wait_ms);
      exec.push_back(o.execute_ms);
    }
    tape_hits += static_cast<double>(o.stats.tape_hits);
    tape_builds += static_cast<double>(o.stats.tape_builds);
    columns += static_cast<double>(o.stats.columns_read);
    stats_built += static_cast<double>(o.stats.stats_paths_built);
  }
  const double n =
      std::max<double>(1.0, static_cast<double>(result.window.size()));
  metrics.push_back({"compile_ms", Median(compile), "ms"});
  metrics.push_back({"tape_hits", tape_hits / n, "count/query"});
  metrics.push_back({"tape_builds", tape_builds / n, "count/query"});
  metrics.push_back({"columns_read", columns / n, "count/query"});
  metrics.push_back({"stats_paths_built", stats_built / n, "count/query"});
  metrics.push_back({"queue_wait_ms", Median(wait), "ms"});
  metrics.push_back({"service_exec_ms", Median(exec), "ms"});
  metrics.push_back({"plan_cache_hits",
                     static_cast<double>(result.plan_cache.hits), "count"});
  metrics.push_back({"plan_cache_misses",
                     static_cast<double>(result.plan_cache.misses), "count"});
  return metrics;
}

void PrintSummary(const WorkloadResult& result) {
  for (int q = 0; q < kQueryCount; ++q) {
    const std::vector<double> wall = WallMs(result, q);
    if (wall.empty()) continue;
    const double p = TailPercentile(wall.size());
    std::printf("# %-4s n=%-4zu median=%.2f ms", kQueries[q].name, wall.size(),
                Median(wall));
    if (p > 0) std::printf(" p%.0f=%.2f ms", p, Percentile(wall, p));
    std::printf(" (min %.2f, p25 %.2f, p75 %.2f, max %.2f)\n",
                Percentile(wall, 0), Percentile(wall, 25), Percentile(wall, 75),
                Percentile(wall, 100));
  }
}

/// The warm-up queries in order, to show how far a fresh process is
/// from its steady state.
void PrintWarmup(const WorkloadResult& result) {
  for (int q = 0; q < kQueryCount; ++q) {
    std::printf("# warm-up %-4s", kQueries[q].name);
    for (const Observation& o : result.warmup) {
      if (o.query == q) std::printf(" %.1f", o.wall_ms);
    }
    std::printf(" ms\n");
  }
}

void PrintSelfTimes(const SpanLog& spans) {
  for (const auto& [name, self] : spans.SelfTimes()) {
    double total = 0;
    for (double v : self) total += v;
    std::printf("# span %-22s n=%-5zu self median=%.3f ms total=%.1f ms\n",
                name.c_str(), self.size(), Median(self), total);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--span-file PATH] [--worker-bin "
                 "PATH] [--revision REV]\n");
    return 2;
  }
  const std::string override_env = DisableOverride();
  if (!override_env.empty()) {
    std::fprintf(stderr, "refusing to run with %s set\n",
                 override_env.c_str());
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("# host nproc=%u simd=%s build=%s revision=%s\n",
              std::thread::hardware_concurrency(),
              jpar::SimdLevelName(jpar::ActiveSimdLevel()),
              PERFBENCH_BUILD_TYPE, args.revision.c_str());

  // The reference task's tables are the benchmark's own; making them is
  // not set-up.
  const Clock::time_point reference_start = Clock::now();
  HostReference reference(Cores());
  const double reference_alloc_s =
      std::chrono::duration<double>(Clock::now() - reference_start).count();

  const Clock::time_point gen_start = Clock::now();
  CorpusSpec spec;  // the same make-up for every workload
  spec.seed = args.seed;
  const Corpus corpus = GenerateCorpus(spec);
  const double generation_s =
      std::chrono::duration<double>(Clock::now() - gen_start).count();
  std::printf(
      "# corpus seed=%llu files=%d records/file=%d measurements/array=%d "
      "stations=%d years=%d-%d measurements=%llu bytes=%llu "
      "generated in %.2f s\n",
      static_cast<unsigned long long>(spec.seed), spec.files,
      spec.records_per_file, spec.measurements_per_array, spec.stations,
      spec.first_year, spec.last_year,
      static_cast<unsigned long long>(corpus.truth.measurements),
      static_cast<unsigned long long>(corpus.truth.bytes), generation_s);
  std::printf("# truth q0_dates=%zu tmin=%llu tmin_dates=%zu q2_keys=%zu\n",
              corpus.truth.q0_dates.size(),
              static_cast<unsigned long long>(corpus.truth.tmin_records),
              corpus.truth.q1_tmin_per_date.size(),
              corpus.truth.q2_sums.size());

  SpanLog spans(args.trace);
  WorkloadConfig config;
  config.seconds = args.seconds;
  config.dir = args.dir;
  config.worker_bin = args.worker_bin;
  config.spans = &spans;
  config.reference = &reference;
  WorkloadResult result;
  const std::string setup_error = workload->run(corpus, config, &result);
  if (!setup_error.empty()) {
    std::fprintf(stderr, "%s: %s\n", workload->name, setup_error.c_str());
    return 1;
  }
  const double setup_s =
      std::chrono::duration<double>(result.window_open - kProcessStart)
          .count() -
      reference_alloc_s - generation_s - result.input_write_s;
  const std::vector<double>& ref = reference.samples();
  const double host_factor = reference.Factor();
  if (!ref.empty()) {
    std::printf(
        "# host reference task: %zu repetitions in the window, median "
        "%.3f ms (min %.3f, p25 %.3f, p75 %.3f, max %.3f); host factor "
        "%.4f against %.1f ms\n",
        ref.size(), Median(ref), Percentile(ref, 0), Percentile(ref, 25),
        Percentile(ref, 75), Percentile(ref, 100), host_factor,
        kReferenceNominalMs);
  }
  std::printf("# unadjusted setup_s=%.4f s, qps=%.4f 1/s\n", setup_s,
              static_cast<double>(result.window.size()) / result.window_s);
  std::printf("# workload %s: %s; window %.2f s, %zu queries, host steal "
              "%.1f%% of CPU time\n",
              workload->name, result.describe.c_str(), result.window_s,
              result.window.size(), result.steal_pct);
  PrintWarmup(result);
  PrintSummary(result);

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(corpus, &result, &spans,
                       std::string(workload->name) == "distributed");
    PrintSelfTimes(spans);
    const std::string path =
        args.span_file.empty() ? args.dir + "/spans.jsonl" : args.span_file;
    if (!spans.Write(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans written to %s\n", path.c_str());
  } else {
    metrics = EndToEnd(result, setup_s, host_factor);
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no query ran in the window\n");
    return 1;
  }

  std::string line = "{\"correct\": ";
  line += result.wrong == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
