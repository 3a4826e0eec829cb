#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/engine.h"
#include "dist/dispatcher.h"
#include "service/query_service.h"

namespace perfbench {

namespace {

// Warm-up is counted in rounds of the five queries, not in time: the
// first threaded queries of a fresh process run several times slower
// than later ones, and set-up must show any work moved into it.
constexpr int kWarmupRounds = 3;
// warm_service: one corpus file is rewritten every this many completed
// window queries.
constexpr uint64_t kRewriteEvery = 10;
// warm_service: the sessions wait for each other after this many
// rotations of the five queries; the host reference task then runs
// kReferenceRepsPerSync times while the service is idle.
constexpr int kRotationsPerSync = 2;
constexpr int kReferenceRepsPerSync = 4;
/// Host-wide CPU ticks from /proc/stat: the steal column and the sum of
/// all columns. Zero where the file cannot be read.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks ReadHostTicks() {
  HostTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealPct(const HostTicks& a, const HostTicks& b) {
  return b.total > a.total ? 100.0 * static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

jpar::Collection InMemoryCollection(const Corpus& corpus) {
  jpar::Collection coll;
  for (const std::string& text : corpus.text) {
    coll.files.push_back(jpar::JsonFile::FromText(text));
  }
  return coll;
}

/// Collects outcomes from one or many client threads.
class Recorder {
 public:
  Recorder(const Corpus& corpus, WorkloadResult* result, bool check_scans)
      : checker_(corpus.truth), result_(result), check_scans_(check_scans) {}

  /// Checks one finished query and, inside the window, counts it.
  void Finish(bool in_window, const jpar::Status& status,
              const jpar::QueryOutput* output, Observation obs) {
    std::string verdict;
    if (status.ok()) {
      verdict = checker_.Check(obs.query, output->items);
      if (verdict.empty() && check_scans_) {
        verdict = checker_.CheckScanCounts(obs.query, output->stats);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (in_window) ++result_->attempted;
    if (!status.ok()) {
      // A failure inside the window is counted as failed; one during
      // warm-up leaves the run unchecked, so it counts as wrong.
      if (in_window) ++result_->failed;
      NoteLocked(std::string(kQueries[obs.query].name) + " failed: " +
                     status.ToString(),
                 !in_window);
      return;
    }
    if (!verdict.empty()) NoteLocked(verdict, true);
    if (in_window) {
      obs.stats = output->stats;
      result_->window.push_back(std::move(obs));
    } else {
      result_->warmup.push_back(std::move(obs));
    }
  }

  /// Records a failed check: the run is then incorrect.
  void Note(std::string error) {
    std::lock_guard<std::mutex> lock(mu_);
    NoteLocked(std::move(error), true);
  }

 private:
  void NoteLocked(std::string error, bool wrong) {
    if (wrong) ++result_->wrong;
    if (result_->errors.size() < 20) result_->errors.push_back(error);
  }

  AnswerChecker checker_;
  WorkloadResult* result_;
  const bool check_scans_;
  std::mutex mu_;  // guards *result_
};

/// Runs `one_query` over whole rounds: a counted warm-up, then rounds
/// until the window has lasted config.seconds. The host reference task
/// runs once after each window round; its time is not window time.
template <typename F>
void RunRounds(const WorkloadConfig& config, WorkloadResult* result,
               F one_query) {
  for (int round = 0; round < kWarmupRounds; ++round) {
    for (int q = 0; q < kQueryCount; ++q) {
      one_query(static_cast<QueryId>(q), false);
    }
  }
  result->window_open = Clock::now();
  const HostTicks ticks = ReadHostTicks();
  const double reference_ms = config.reference->total_ms();
  Clock::time_point now = result->window_open;
  while (MsBetween(result->window_open, now) < config.seconds * 1000.0) {
    for (int q = 0; q < kQueryCount; ++q) {
      one_query(static_cast<QueryId>(q), true);
    }
    config.reference->Sample(1);
    now = Clock::now();
  }
  result->window_s = (MsBetween(result->window_open, now) -
                      (config.reference->total_ms() - reference_ms)) /
                     1000.0;
  result->steal_pct = StealPct(ticks, ReadHostTicks());
}

// ---- adhoc -------------------------------------------------------------

std::string RunAdhoc(const Corpus& corpus, const WorkloadConfig& config,
                     WorkloadResult* result) {
  jpar::EngineOptions options;
  options.exec.partitions = Cores();
  options.exec.use_threads = true;
  options.exec.spill_dir = config.dir;
  jpar::Engine engine(options);
  engine.catalog()->RegisterCollection("/sensors", InMemoryCollection(corpus));
  result->describe = "in-process Engine, " +
                     std::to_string(options.exec.partitions) +
                     " partitions on threads, in-memory corpus";

  Recorder recorder(corpus, result, /*check_scans=*/true);
  SpanLog* spans = config.spans;
  int64_t next_query_id = 0;
  RunRounds(config, result, [&](QueryId q, bool in_window) {
    const Query& query = kQueries[q];
    const std::string name = query.name;
    Observation obs;
    obs.query = q;
    const int64_t qid = ++next_query_id;
    ScopedSpan root(spans, query.name, 0, qid);
    const Clock::time_point start = Clock::now();
    jpar::Result<jpar::CompiledQuery> compiled = jpar::Status::OK();
    {
      ScopedSpan span(spans, (name + ".compile").c_str(), root.id(), qid);
      compiled = engine.Compile(query.text);
    }
    const Clock::time_point compiled_at = Clock::now();
    if (!compiled.ok()) {
      recorder.Finish(in_window, compiled.status(), nullptr, obs);
      return;
    }
    jpar::Result<jpar::QueryOutput> out = jpar::Status::OK();
    Clock::time_point exec_start;
    {
      ScopedSpan span(spans, (name + ".execute").c_str(), root.id(), qid);
      exec_start = Clock::now();
      out = engine.Execute(*compiled);
    }
    const Clock::time_point end = Clock::now();
    obs.wall_ms = MsBetween(start, end);
    obs.compile_ms = MsBetween(start, compiled_at);
    obs.execute_ms = MsBetween(exec_start, end);
    if (out.ok() && spans->enabled()) {
      const std::string verdict = CheckStageTimes(out->stats, obs.execute_ms);
      if (!verdict.empty()) recorder.Note(name + ": " + verdict);
    }
    recorder.Finish(in_window, out.status(), out.ok() ? &*out : nullptr,
                    std::move(obs));
  });
  return "";
}

// ---- distributed -------------------------------------------------------

constexpr int kDistWorkers = 3;

std::string RunDistributed(const Corpus& corpus, const WorkloadConfig& config,
                           WorkloadResult* result) {
  jpar::EngineOptions options;
  options.exec.partitions = kDistWorkers;
  options.exec.spill_dir = config.dir;
  jpar::Engine engine(options);
  engine.catalog()->RegisterCollection("/sensors", InMemoryCollection(corpus));

  jpar::DistOptions dist;
  dist.local_workers = kDistWorkers;
  dist.worker_binary = config.worker_bin;
  jpar::Cluster cluster(dist);  // its destructor stops and reaps workers
  jpar::Status started = cluster.Start();
  if (!started.ok()) return "cluster start failed: " + started.ToString();
  result->describe = "Cluster of " + std::to_string(kDistWorkers) +
                     " local jpar_worker processes, partitions=" +
                     std::to_string(kDistWorkers) + ", in-memory corpus";

  Recorder recorder(corpus, result, /*check_scans=*/false);
  SpanLog* spans = config.spans;
  int64_t next_query_id = 0;
  RunRounds(config, result, [&](QueryId q, bool in_window) {
    const Query& query = kQueries[q];
    const std::string name = query.name;
    Observation obs;
    obs.query = q;
    const int64_t qid = ++next_query_id;
    ScopedSpan root(spans, query.name, 0, qid);
    const Clock::time_point start = Clock::now();
    jpar::Result<jpar::CompiledQuery> compiled = jpar::Status::OK();
    {
      ScopedSpan span(spans, (name + ".compile").c_str(), root.id(), qid);
      compiled =
          engine.Compile(query.text, options.rules, options.exec);
    }
    const Clock::time_point compiled_at = Clock::now();
    if (!compiled.ok()) {
      recorder.Finish(in_window, compiled.status(), nullptr, obs);
      return;
    }
    jpar::Result<jpar::QueryOutput> out = jpar::Status::OK();
    {
      ScopedSpan span(spans, (name + ".cluster_run").c_str(), root.id(), qid);
      out = cluster.Run(query.text, options.rules, options.exec, *compiled,
                        *engine.catalog(), nullptr);
    }
    obs.wall_ms = MsBetween(start, Clock::now());
    obs.compile_ms = MsBetween(start, compiled_at);
    obs.execute_ms = obs.wall_ms - obs.compile_ms;
    recorder.Finish(in_window, out.status(), out.ok() ? &*out : nullptr,
                    std::move(obs));
  });
  cluster.Stop();
  return "";
}

// ---- warm_service ------------------------------------------------------

/// Matches ServiceOptions::on_query_start calls to submissions. The
/// hook only names the query text, so submissions of one text are
/// matched first in, first out (the worker pool is a FIFO queue).
class StartTracker {
 public:
  struct Slot {
    Clock::time_point started;
  };

  /// Submits under the tracker's lock, so queue order and slot order
  /// agree.
  jpar::QueryTicket Submit(jpar::Session* session, const std::string& text,
                           Slot* slot) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[text].push_back(slot);
    jpar::QueryTicket ticket = session->Submit(text);
    if (ticket.done()) {
      // Rejected at admission: the hook will never fire for it.
      std::deque<Slot*>& q = pending_[text];
      q.erase(std::find(q.begin(), q.end(), slot));
    }
    return ticket;
  }

  void Started(std::string_view text) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(text);
    if (it == pending_.end() || it->second.empty()) return;
    it->second.front()->started = now;
    it->second.pop_front();
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::deque<Slot*>, std::less<>> pending_;
};

/// Writes `text` to `path` through a temporary file and a rename, so a
/// concurrent reader sees the old file or the new one, never a mix.
bool WriteAtomically(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  if (std::fclose(f) != 0 || !written) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string RunWarmService(const Corpus& corpus, const WorkloadConfig& config,
                           WorkloadResult* result) {
  // The rewrites alternate each file between two serialisations of the
  // same records; both are made before set-up starts.
  const Clock::time_point write_start = Clock::now();
  std::vector<std::string> paths;
  std::vector<std::string> respaced;
  for (size_t f = 0; f < corpus.text.size(); ++f) {
    char name[64];
    std::snprintf(name, sizeof(name), "/sensors-%02zu.json", f);
    paths.push_back(config.dir + name);
    if (!WriteAtomically(paths.back(), corpus.text[f])) {
      return "cannot write " + paths.back();
    }
    respaced.push_back(
        RenderFile(corpus.records[f], Style::kSpacedReversed, nullptr));
  }
  result->input_write_s = MsBetween(write_start, Clock::now()) / 1000.0;

  StartTracker tracker;
  jpar::ServiceOptions options;
  options.on_query_start = [&tracker](std::string_view text) {
    tracker.Started(text);
  };
  const int clients = std::min(options.worker_threads, Cores());
  jpar::QueryService service(options);
  jpar::Collection coll;
  for (const std::string& path : paths) {
    coll.files.push_back(jpar::JsonFile::FromPath(path));
  }
  service.catalog()->RegisterCollection("/sensors", coll);
  result->describe =
      "QueryService defaults (" + std::to_string(options.worker_threads) +
      " workers), " + std::to_string(clients) +
      " closed-loop sessions synced every " +
      std::to_string(kRotationsPerSync) +
      " rotations, corpus in files, one file rewritten every " +
      std::to_string(kRewriteEvery) + " queries";

  Recorder recorder(corpus, result, /*check_scans=*/false);
  SpanLog* spans = config.spans;
  std::atomic<int64_t> next_query_id{0};
  std::atomic<uint64_t> completed{0};
  bool window_over = false;  // written by a barrier's completion only
  std::mutex rewrite_mu;
  std::vector<int> rewrites(paths.size(), 0);  // guarded by rewrite_mu
  HostTicks ticks;
  std::barrier warmed(clients, [&]() noexcept {
    result->window_open = Clock::now();
    ticks = ReadHostTicks();
  });
  // Every kRotationsPerSync rotations all sessions are idle here: the
  // window either ends or the host reference task runs.
  const double reference_ms = config.reference->total_ms();
  Clock::time_point window_close;
  std::barrier synced(clients, [&]() noexcept {
    const Clock::time_point now = Clock::now();
    if (MsBetween(result->window_open, now) -
            (config.reference->total_ms() - reference_ms) >=
        config.seconds * 1000.0) {
      window_over = true;
      window_close = now;
    } else {
      config.reference->Sample(kReferenceRepsPerSync);
    }
  });

  auto client = [&](int c) {
    std::shared_ptr<jpar::Session> session = service.CreateSession();
    auto one_query = [&](QueryId q, bool in_window) {
      const Query& query = kQueries[q];
      const std::string name = query.name;
      Observation obs;
      obs.query = q;
      const int64_t qid = ++next_query_id;
      StartTracker::Slot slot;
      const Clock::time_point start = Clock::now();
      const double start_ms = spans->NowMs();
      jpar::QueryTicket ticket = tracker.Submit(session.get(), query.text,
                                                &slot);
      ticket.Wait();
      const Clock::time_point end = Clock::now();
      obs.wall_ms = MsBetween(start, end);
      if (slot.started != Clock::time_point()) {
        obs.queue_wait_ms = MsBetween(start, slot.started);
        obs.execute_ms = MsBetween(slot.started, end);
      }
      if (spans->enabled()) {
        const double end_ms = spans->NowMs();
        Span root{name, spans->NextId(), 0, qid, start_ms, end_ms};
        if (obs.queue_wait_ms >= 0) {
          const double started_ms = start_ms + obs.queue_wait_ms;
          spans->Add(Span{name + ".queue_wait", spans->NextId(), root.id, qid,
                          start_ms, started_ms});
          spans->Add(Span{name + ".service_exec", spans->NextId(), root.id,
                          qid, started_ms, end_ms});
        }
        spans->Add(std::move(root));
      }
      const jpar::Status status = ticket.status();
      recorder.Finish(in_window, status, status.ok() ? &ticket.output()
                                                     : nullptr,
                      std::move(obs));
      if (!in_window) return;
      const uint64_t n = ++completed;
      if (n % kRewriteEvery != 0) return;
      std::lock_guard<std::mutex> lock(rewrite_mu);
      const size_t f = (n / kRewriteEvery) % paths.size();
      const bool spaced = (rewrites[f]++ % 2) == 0;
      if (!WriteAtomically(paths[f], spaced ? respaced[f] : corpus.text[f])) {
        recorder.Note("rewrite of " + paths[f] + " failed");
      }
    };
    // Each client starts its rotation at another query.
    for (int round = 0; round < kWarmupRounds; ++round) {
      for (int i = 0; i < kQueryCount; ++i) {
        one_query(static_cast<QueryId>((i + c) % kQueryCount), false);
      }
    }
    warmed.arrive_and_wait();
    while (!window_over) {
      for (int rotation = 0; rotation < kRotationsPerSync; ++rotation) {
        for (int i = 0; i < kQueryCount; ++i) {
          one_query(static_cast<QueryId>((i + c) % kQueryCount), true);
        }
      }
      synced.arrive_and_wait();
    }
  };

  {
    // jthreads join on every exit path, before what they use is gone.
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  }
  service.Drain();
  result->window_s = (MsBetween(result->window_open, window_close) -
                      (config.reference->total_ms() - reference_ms)) /
                     1000.0;
  result->steal_pct = StealPct(ticks, ReadHostTicks());
  result->plan_cache = service.Metrics().plan_cache;
  return "";
}

}  // namespace

int Cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n == 0 ? 1u : n, 1u, 4u));
}

const Workload* FindWorkload(const std::string& name) {
  static const Workload kWorkloads[] = {
      {"adhoc", &RunAdhoc},
      {"warm_service", &RunWarmService},
      {"distributed", &RunDistributed},
  };
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
