// Minimal experiment-spec parser: `key = value` lines (also `key value`),
// '#' comments, no sections. Used by the cxl_lab example so experiments can
// be described in checked-in files, mirroring how the paper's artifact
// repository ships testing configurations. It only splits rows; cxl_lab
// applies each value through its experiment's flag table (src/util/flags.h).
#ifndef CXL_EXPLORER_SRC_UTIL_CONFIG_H_
#define CXL_EXPLORER_SRC_UTIL_CONFIG_H_

#include <istream>
#include <map>
#include <string>

#include "src/util/status.h"

namespace cxl {

class Config {
 public:
  // Parses a stream; returns INVALID_ARGUMENT (with a line number) for
  // malformed rows or duplicate keys.
  static StatusOr<Config> Parse(std::istream& is);
  static StatusOr<Config> ParseString(const std::string& text);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_CONFIG_H_
