// Entry points of the benchmark program's subcommands (see main.cpp). Each
// runs one piece of a workload in this process, times every call into the
// library from outside, checks every output, and writes a Report.

#ifndef GVEX_PERFBENCH_WORKLOADS_H_
#define GVEX_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test hook: corrupts the Nth expected output (1-based; 0 = none), so
  /// the benchmark's tests can show a wrong expectation counts as failed.
  int corrupt = 0;
  std::string out;    ///< Report path
  std::string spans;  ///< span TSV path (traced mode)
  std::string dir;    ///< serve: directory holding the generated inputs
  int port = 0;       ///< serve-client: the server's port
  int server_pid = 0;  ///< serve-client: the server's pid (CPU accounting)
};

/// APX-GVEX (and on MAL also Stream-GVEX) explain-and-summarize runs over
/// one label group of `dataset` ("MUT" or "MAL"). Returns the exit code.
int RunExplain(const std::string& dataset, const RunOptions& options);

/// Writes the serve workload's inputs under options.dir: graphs.txt, and a
/// durable store in store/ holding a snapshot plus a WAL tail.
int PrepareServe(const RunOptions& options);

/// Drives a running gvex_netserve over TCP with the read/admit mix, then
/// (traced mode) times the serving layers in process.
int RunServeClient(const RunOptions& options);

}  // namespace perfbench

#endif  // GVEX_PERFBENCH_WORKLOADS_H_
