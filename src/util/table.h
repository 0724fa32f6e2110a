// Fixed-width ASCII table emitter used by the benchmark harnesses to
// print paper-style tables and figure series.
#ifndef CXL_EXPLORER_SRC_UTIL_TABLE_H_
#define CXL_EXPLORER_SRC_UTIL_TABLE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace cxl {

// Builds a table row by row; every row must have as many cells as there are
// columns. Numeric helpers format with sensible precision.
class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  // Starts a new row; subsequent Cell() calls fill it left to right.
  Table& Row();
  Table& Cell(const std::string& value);
  Table& Cell(const char* value) { return Cell(std::string(value)); }
  Table& Cell(double value, int precision = 2);
  Table& Cell(uint64_t value);
  Table& Cell(int value) { return Cell(static_cast<uint64_t>(value)); }

  size_t row_count() const { return rows_.size(); }

  // Pretty-prints with aligned columns and a header rule.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section header ("== title ==") used between figure panels.
void PrintSection(std::ostream& os, const std::string& title);

// Formats a double with the given precision (helper shared with benches).
std::string FormatDouble(double value, int precision = 2);

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_TABLE_H_
