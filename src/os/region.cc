#include "src/os/region.h"

#include "src/topology/platform.h"

namespace cxl::os {

StatusOr<MemoryRegion> MemoryRegion::Allocate(PageAllocator& allocator, const NumaPolicy& policy,
                                              uint64_t bytes) {
  const uint64_t page_bytes = allocator.page_bytes();
  const uint64_t count = (bytes + page_bytes - 1) / page_bytes;
  auto pages = allocator.Allocate(policy, count);
  if (!pages.ok()) {
    return pages.status();
  }
  return MemoryRegion(&allocator, std::move(pages).value(), bytes);
}

std::vector<double> MemoryRegion::NodeShares() const {
  std::vector<double> shares(allocator_->platform().nodes().size(), 0.0);
  if (pages_.empty()) {
    return shares;
  }
  const double size = static_cast<double>(pages_.size());
  if (pages_.size() == allocator_->allocated_pages()) {
    // The region holds every allocated page, so the per-node counts are
    // its own: the same exact counts the walk below makes.
    for (size_t n = 0; n < shares.size(); ++n) {
      shares[n] = static_cast<double>(allocator_->UsedPages(static_cast<topology::NodeId>(n))) /
                  size;
    }
    return shares;
  }
  // Each run reads the node column in id order: sequential streaming, no
  // indirection through an id vector.
  const int8_t* node_col = allocator_->node_column();
  for (const PageRuns::Run& run : pages_.runs()) {
    for (uint64_t i = 0; i < run.count; ++i) {
      const topology::NodeId n = node_col[run.at(i)];
      if (n >= 0) {
        shares[static_cast<size_t>(n)] += 1.0;
      }
    }
  }
  for (auto& s : shares) {
    s /= size;
  }
  return shares;
}

double MemoryRegion::DramShare() const {
  const auto shares = NodeShares();
  double dram = 0.0;
  for (const auto& n : allocator_->platform().nodes()) {
    if (n.kind == topology::NodeKind::kDram) {
      dram += shares[static_cast<size_t>(n.id)];
    }
  }
  return dram;
}

void MemoryRegion::Free() {
  if (!pages_.empty()) {
    allocator_->Free(pages_);
    pages_.clear();
    bytes_ = 0;
  }
}

}  // namespace cxl::os
