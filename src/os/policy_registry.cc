#include "src/os/policy_registry.h"

#include <utility>

#include "src/os/tiering.h"

namespace cxl::os {

Status PolicyRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("policy name must not be empty");
  }
  if (factories_.count(name) > 0) {
    return Status::AlreadyExists("tiering policy already registered: " + name);
  }
  factories_[name] = std::move(factory);
  return Status::Ok();
}

StatusOr<std::unique_ptr<TieringPolicy>> PolicyRegistry::Create(
    const std::string& name, const TieringConfig& config) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& n : Names()) {
      known += known.empty() ? n : ", " + n;
    }
    return Status::NotFound("unknown tiering policy \"" + name + "\" (known: " + known + ")");
  }
  return it->second(config);
}

std::vector<std::string> PolicyRegistry::Names() const {
  // std::map iterates in key order, so the listing is already sorted.
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    names.push_back(name);
  }
  return names;
}

PolicyRegistry PolicyRegistry::BuiltIns() {
  PolicyRegistry registry;
  auto add = [&registry](const char* name, auto make) {
    const Status s = registry.Register(name, std::move(make));
    (void)s;  // Fresh registry: the built-in names cannot collide.
  };
  add(kHotPageSelectionPolicyName, [](const TieringConfig& config) {
    return std::unique_ptr<TieringPolicy>(new HotPageSelectionPolicy(config));
  });
  add(kMruBalancingPolicyName, [](const TieringConfig& config) {
    return std::unique_ptr<TieringPolicy>(new MruBalancingPolicy(config));
  });
  add(kTppLikePolicyName, [](const TieringConfig& config) {
    return std::unique_ptr<TieringPolicy>(new TppLikePolicy(config));
  });
  add(kAdaptiveFeedbackPolicyName, [](const TieringConfig& config) {
    return std::unique_ptr<TieringPolicy>(new AdaptiveFeedbackPolicy(config));
  });
  return registry;
}

}  // namespace cxl::os
