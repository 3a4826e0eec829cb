#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::map<std::string, std::vector<double>> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ms, s.start_ms),
                        std::min(c->end_ms, s.end_ms));
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double reach = s.start_ms;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    out[s.name].push_back(s.end_ms - s.start_ms - covered);
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"query_id\":%lld,\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query_id), s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, int64_t parent,
                       int64_t query_id)
    : log_(log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->NextId();
  span_.parent = parent;
  span_.query_id = query_id;
  span_.start_ms = log_->NowMs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ms = log_->NowMs();
  log_->Add(std::move(span_));
}

}  // namespace perfbench
