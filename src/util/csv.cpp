#include "util/csv.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace gvex {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToText() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += " " + cell + std::string(width[c] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string out = render_row(headers_);
  std::string sep = "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    sep += std::string(width[c] + 2, '-') + "|";
  }
  out += sep + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string FmtDouble(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return std::string(buf);
}

}  // namespace gvex
