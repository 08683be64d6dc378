// In-memory span recorder for the benchmark's traced mode.
//
// A span is one call into a library layer, timed from outside: its name,
// steady-clock start and end, the span that was open around it (its
// parent), and the graph or request id it worked on. Spans go into a
// vector reserved up front, so recording does no I/O and rarely allocates;
// WriteSpans writes them out once the timed work is over. run.py turns the
// file into per-layer self times (span minus the part its children cover).
//
// Thread-safety: one Tracer per thread; WriteSpans runs after they stop.

#ifndef GVEX_PERFBENCH_SPANS_H_
#define GVEX_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds.
int64_t NowNs();

/// CPU time of the calling thread, and of the whole process, in
/// nanoseconds. The kernel charges a thread only for time it ran, so time
/// the host steals from the VM and time spent preempted do not count.
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();

struct Span {
  const char* name = "";  ///< a string literal: the layer's metric stem
  int64_t id = -1;        ///< graph index or request sequence number
  int parent = -1;        ///< index into the same Tracer, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and Open returns -1.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index.
  int Open(const char* name, int64_t id);
  /// Closes the span `Open` returned (spans close innermost first).
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t id)
      : tracer_(tracer), index_(tracer->Open(name, id)) {}
  ~Scope() { tracer_->Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Writes every span of `tracers` as TSV lines
/// `name id parent start_ns end_ns`, parent indices made global across the
/// tracers. Returns false on an I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// Cost of one Open/Close pair in nanoseconds (median of repeated batches),
/// used to report the tracing overhead of a traced run.
double SpanCostNs();

}  // namespace perfbench

#endif  // GVEX_PERFBENCH_SPANS_H_
