// Name-keyed factory for TieringPolicy implementations.
//
// Configs and bench flags carry a policy *name*
// ("hot-page-selection", "adaptive-feedback", ...) that resolves here.
// Registries are plain values — BuiltIns() returns a fresh instance and
// callers hold their own copy — because a mutable process-wide singleton in
// src/os would be exactly the static-storage determinism hazard cxl_lint's
// CXL-D004 exists to reject. Third-party policies Register() on the
// instance they pass around.
#ifndef CXL_EXPLORER_SRC_OS_POLICY_REGISTRY_H_
#define CXL_EXPLORER_SRC_OS_POLICY_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/policy.h"
#include "src/util/status.h"

namespace cxl::os {

// Canonical names of the built-in policies.
inline constexpr const char kHotPageSelectionPolicyName[] = "hot-page-selection";
inline constexpr const char kMruBalancingPolicyName[] = "mru-balancing";
inline constexpr const char kTppLikePolicyName[] = "tpp-like";
inline constexpr const char kAdaptiveFeedbackPolicyName[] = "adaptive-feedback";

class PolicyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<TieringPolicy>(const TieringConfig&)>;

  // Registers a factory under `name`. ALREADY_EXISTS on duplicates.
  Status Register(const std::string& name, Factory factory);

  bool Has(const std::string& name) const { return factories_.count(name) > 0; }

  // Instantiates the named policy for `config`. NOT_FOUND (listing the
  // known names) for unregistered names.
  StatusOr<std::unique_ptr<TieringPolicy>> Create(const std::string& name,
                                                  const TieringConfig& config) const;

  // Registered names in sorted order (for listings and error messages).
  std::vector<std::string> Names() const;

  // A registry holding the four built-in policies, by value.
  static PolicyRegistry BuiltIns();

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_POLICY_REGISTRY_H_
