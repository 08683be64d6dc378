// The result file each benchmark subcommand writes for run.py: one JSON
// object with the operation tally (attempted / failed), raw timing samples
// per series, scalar counts, and human-readable notes. run.py computes
// every percentile and median from the raw samples, so this side only
// records.

#ifndef GVEX_PERFBENCH_REPORT_H_
#define GVEX_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Timing samples in the unit their name ends with (_ms, _s, _us).
  std::map<std::string, std::vector<double>> samples;
  /// Scalars: counts, bases, sizes.
  std::map<std::string, double> values;
  /// Free-text lines run.py prints above the result.
  std::vector<std::string> notes;

  /// Counts one checked operation; `ok` false counts it failed.
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// Writes the JSON object; false on an I/O error.
  bool Write(const std::string& path) const;
};

/// Peak resident set (VmHWM) of this process in MiB, 0 when unknown.
double PeakRssMb();

}  // namespace perfbench

#endif  // GVEX_PERFBENCH_REPORT_H_
