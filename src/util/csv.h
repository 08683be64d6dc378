// Aligned text tables used by the benchmark harness to print paper-style
// rows.

#ifndef GVEX_UTIL_CSV_H_
#define GVEX_UTIL_CSV_H_

#include <string>
#include <vector>

namespace gvex {

/// Accumulates rows of string cells and renders an aligned text table (for
/// terminal output, matching how the paper reports series).
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; pads/truncates to the header width.
  void AddRow(std::vector<std::string> cells);

  /// Number of data rows.
  size_t num_rows() const { return rows_.size(); }

  /// Renders an aligned, pipe-separated text table.
  std::string ToText() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `prec` decimals (shared helper for bench output).
std::string FmtDouble(double v, int prec = 4);

}  // namespace gvex

#endif  // GVEX_UTIL_CSV_H_
