// MemoryRegion: an application-visible virtual memory range backed by pages
// placed under a NumaPolicy. Applications address it by byte offset; the
// region resolves offsets to pages so access streams can be attributed to
// NUMA nodes and fed to the hotness tracker.
#ifndef CXL_EXPLORER_SRC_OS_REGION_H_
#define CXL_EXPLORER_SRC_OS_REGION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/os/numa_policy.h"
#include "src/os/page_allocator.h"
#include "src/os/page_runs.h"
#include "src/util/status.h"

namespace cxl::os {

class MemoryRegion {
 public:
  // Allocates ceil(bytes / page_bytes) pages under `policy`.
  static StatusOr<MemoryRegion> Allocate(PageAllocator& allocator, const NumaPolicy& policy,
                                         uint64_t bytes);

  MemoryRegion(MemoryRegion&&) = default;
  MemoryRegion& operator=(MemoryRegion&&) = default;
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;
  // The destructor does not free the pages: Free() a region to return them
  // to its allocator, or abandon it together with the allocator.
  ~MemoryRegion() = default;

  uint64_t bytes() const { return bytes_; }
  size_t page_count() const { return pages_.size(); }

  // Page by index in [0, page_count()). A region carved out of a fresh
  // allocator is one run of consecutive ids, so the common case is an add
  // (this is KvStore::Access's hottest dependency).
  PageId PageAtIndex(size_t index) const { return pages_[index]; }

  // Calls fn(lowest_id, count) for each span of consecutive ids backing the
  // pages at indices [begin, end): PageRuns::ForEachSpan over the region.
  template <typename Fn>
  void ForEachSpan(size_t begin, size_t end, Fn&& fn) const {
    pages_.ForEachSpan(begin, end, fn);
  }

  // Fraction of the region's pages currently resident on each node
  // (indexed by NodeId; sums to 1). O(nodes) when the region holds every
  // page its allocator has allocated, else a walk of the region's pages.
  std::vector<double> NodeShares() const;

  // Fraction currently on DRAM (top tier).
  double DramShare() const;

  // Releases the pages back to the allocator.
  void Free();

 private:
  MemoryRegion(PageAllocator* allocator, PageRuns pages, uint64_t bytes)
      : allocator_(allocator), pages_(std::move(pages)), bytes_(bytes) {}

  PageAllocator* allocator_;
  PageRuns pages_;
  uint64_t bytes_ = 0;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_REGION_H_
