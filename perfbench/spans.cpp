#include "spans.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1 << 19);
}

int Tracer::Open(const char* name, int64_t id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  s.start_ns = NowNs();
  spans_.push_back(s);
  return index;
}

void Tracer::Close(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  long long base = 0;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%lld\n", s.name,
                   static_cast<long long>(s.id),
                   s.parent < 0 ? -1LL : base + s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    base += static_cast<long long>(t->spans().size());
  }
  return std::fclose(f) == 0;
}

double SpanCostNs() {
  constexpr int kBatch = 20000;
  std::vector<double> per_span;
  for (int rep = 0; rep < 9; ++rep) {
    Tracer t(true);
    const int64_t start = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      Scope outer(&t, "calibrate", i);
    }
    per_span.push_back(static_cast<double>(NowNs() - start) / kBatch);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

}  // namespace perfbench
