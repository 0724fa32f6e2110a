// sysctl-style tunables. The kernel patches the paper evaluates are all
// configured through sysctl knobs (vm.numa_tier_interleave,
// kernel.numa_balancing_promote_rate_limit_MBps, ...); KnobSet reproduces
// that configuration surface so experiments read like the paper's setups.
#ifndef CXL_EXPLORER_SRC_UTIL_KNOBS_H_
#define CXL_EXPLORER_SRC_UTIL_KNOBS_H_

#include <map>
#include <string>

#include "src/util/status.h"

namespace cxl {

// String-keyed knob registry with typed accessors and defaults. Unknown keys
// are rejected at Set() time once the knob has been Declared, mirroring
// sysctl's behaviour of only accepting registered entries. Numeric and
// string knobs live in separate namespaces (a key is one or the other).
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

  // String-valued knobs (e.g. vm.tiering_policy): same Declare/Set/Get
  // contract as the numeric surface.
  void DeclareString(const std::string& key, const std::string& default_value,
                     const std::string& description);
  Status SetString(const std::string& key, const std::string& value);
  std::string GetString(const std::string& key) const;
  bool IsDeclaredString(const std::string& key) const {
    return string_entries_.count(key) > 0;
  }

  // Restores every knob (numeric and string) to its declared default.
  void ResetAll();

  // For documentation dumps.
  struct Entry {
    double value = 0.0;
    double default_value = 0.0;
    std::string description;
  };
  const std::map<std::string, Entry>& entries() const { return entries_; }

  struct StringEntry {
    std::string value;
    std::string default_value;
    std::string description;
  };
  const std::map<std::string, StringEntry>& string_entries() const { return string_entries_; }

 private:
  std::map<std::string, Entry> entries_;
  std::map<std::string, StringEntry> string_entries_;
};

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_KNOBS_H_
