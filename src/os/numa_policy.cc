#include "src/os/numa_policy.h"

#include <cassert>
#include <utility>

namespace cxl::os {

NumaPolicy::NumaPolicy(PolicyMode mode, std::vector<topology::NodeId> nodes,
                       std::vector<topology::NodeId> low_nodes, int top_weight, int low_weight)
    : mode_(mode),
      nodes_(std::move(nodes)),
      low_nodes_(std::move(low_nodes)),
      top_weight_(top_weight),
      low_weight_(low_weight) {
  assert(!nodes_.empty());
  if (mode_ == PolicyMode::kWeightedInterleave) {
    assert(!low_nodes_.empty());
    assert(top_weight_ >= 1 && low_weight_ >= 1);
  }
}

NumaPolicy NumaPolicy::Bind(std::vector<topology::NodeId> nodes) {
  return NumaPolicy(PolicyMode::kBind, std::move(nodes), {}, 1, 0);
}

NumaPolicy NumaPolicy::Preferred(std::vector<topology::NodeId> nodes) {
  return NumaPolicy(PolicyMode::kPreferred, std::move(nodes), {}, 1, 0);
}

NumaPolicy NumaPolicy::Interleave(std::vector<topology::NodeId> nodes) {
  return NumaPolicy(PolicyMode::kInterleave, std::move(nodes), {}, 1, 0);
}

NumaPolicy NumaPolicy::WeightedInterleave(std::vector<topology::NodeId> top_nodes,
                                          std::vector<topology::NodeId> low_nodes, int top_weight,
                                          int low_weight) {
  return NumaPolicy(PolicyMode::kWeightedInterleave, std::move(top_nodes), std::move(low_nodes),
                    top_weight, low_weight);
}

topology::NodeId NumaPolicy::NodeForIndex(uint64_t index) const {
  switch (mode_) {
    case PolicyMode::kBind:
    case PolicyMode::kPreferred:
      // Round-robin within the bound set to balance capacity use.
      return nodes_[index % nodes_.size()];
    case PolicyMode::kInterleave:
      return nodes_[index % nodes_.size()];
    case PolicyMode::kWeightedInterleave: {
      // Cycle of length top_weight + low_weight: the first `top_weight`
      // slots go to top-tier nodes, the rest to low-tier nodes. Within each
      // tier, successive cycle iterations round-robin across the tier's
      // nodes (this matches the N:M patch's page-allocation order).
      const uint64_t cycle_len = static_cast<uint64_t>(top_weight_ + low_weight_);
      const uint64_t cycle = index / cycle_len;
      const uint64_t slot = index % cycle_len;
      if (slot < static_cast<uint64_t>(top_weight_)) {
        const uint64_t k = cycle * static_cast<uint64_t>(top_weight_) + slot;
        return nodes_[k % nodes_.size()];
      }
      const uint64_t k =
          cycle * static_cast<uint64_t>(low_weight_) + (slot - static_cast<uint64_t>(top_weight_));
      return low_nodes_[k % low_nodes_.size()];
    }
  }
  return nodes_[0];
}

std::vector<topology::NodeId> NumaPolicy::PeriodPattern() const {
  // A period that provably wraps every mode: the plain modes cycle after
  // nodes_.size(); weighted interleave advances its per-tier round-robin by
  // top_weight/low_weight per cycle, so after nodes_.size()*low_nodes_.size()
  // cycles both tiers are back at their starting offsets. The sets involved
  // are a handful of NUMA nodes, so the table stays tiny.
  uint64_t period = nodes_.size();
  if (mode_ == PolicyMode::kWeightedInterleave) {
    period = static_cast<uint64_t>(top_weight_ + low_weight_) * nodes_.size() * low_nodes_.size();
  }
  std::vector<topology::NodeId> pattern(period);
  for (uint64_t i = 0; i < period; ++i) {
    pattern[i] = NodeForIndex(i);
  }
  return pattern;
}

}  // namespace cxl::os
