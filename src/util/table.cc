#include "src/util/table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iomanip>

namespace cxl {

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table& Table::Row() {
  assert(rows_.empty() || rows_.back().size() == columns_.size());
  rows_.emplace_back();
  return *this;
}

Table& Table::Cell(const std::string& value) {
  assert(!rows_.empty() && rows_.back().size() < columns_.size());
  rows_.back().push_back(value);
  return *this;
}

Table& Table::Cell(double value, int precision) { return Cell(FormatDouble(value, precision)); }

Table& Table::Cell(uint64_t value) { return Cell(std::to_string(value)); }

void Table::Print(std::ostream& os) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
    }
    os << "\n";
  };
  print_row(columns_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void PrintSection(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace cxl
