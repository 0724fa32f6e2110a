// Minimal experiment-spec parser: `key = value` lines (also `key value`),
// '#' comments, no sections. Used by the cxl_lab example so experiments can
// be described in checked-in files, mirroring how the paper's artifact
// repository ships testing configurations. It only splits rows; cxl_lab
// applies each value through its experiment's flag table (src/util/flags.h).
#ifndef CXL_EXPLORER_SRC_UTIL_CONFIG_H_
#define CXL_EXPLORER_SRC_UTIL_CONFIG_H_

#include <cstddef>
#include <istream>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace cxl {

class Config {
 public:
  // One `key = value` row and the 1-based line it came from.
  struct Row {
    std::string key;
    std::string value;
    size_t line = 0;
  };

  // Parses a stream; returns INVALID_ARGUMENT (with a line number) for
  // malformed rows or duplicate keys.
  static StatusOr<Config> Parse(std::istream& is);
  static StatusOr<Config> ParseString(const std::string& text);

  // The row of `key`, or nullptr.
  const Row* Find(const std::string& key) const;

  // Every row, in file order.
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_CONFIG_H_
