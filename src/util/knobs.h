// sysctl-style tunables: named numeric knobs with declared defaults. The
// fault layer declares its degradation-response tunables here ("fault.*",
// src/fault/fault.h), and a bench's --fault-knob sets them by name.
#ifndef CXL_EXPLORER_SRC_UTIL_KNOBS_H_
#define CXL_EXPLORER_SRC_UTIL_KNOBS_H_

#include <map>
#include <string>

#include "src/util/status.h"

namespace cxl {

// String-keyed numeric knob registry with defaults. Unknown keys are
// rejected at Set() time once the knob has been Declared, mirroring sysctl's
// behaviour of only accepting registered entries.
class KnobSet {
 public:
  // Registers a knob with its default value and a one-line description.
  void Declare(const std::string& key, double default_value, const std::string& description);

  // Sets a declared knob. Returns NOT_FOUND for unknown keys.
  Status Set(const std::string& key, double value);

  // Reads a knob; returns the declared default if never Set.
  // Asserts (in debug) that the key was declared.
  double Get(const std::string& key) const;

  bool IsDeclared(const std::string& key) const { return entries_.count(key) > 0; }

  // For documentation dumps.
  struct Entry {
    double value = 0.0;
    std::string description;
  };
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_KNOBS_H_
