// Page allocator over a Platform's NUMA nodes.
//
// Tracks free capacity per node and places pages according to a NumaPolicy,
// with kernel-zonelist-style fallback: when the policy's target node is
// full, kPreferred / kInterleave / kWeightedInterleave allocations fall back
// to the node with the most free pages (same-socket DRAM first, then remote
// DRAM, then CXL), while kBind allocations fail.
//
// Page metadata is stored structure-of-arrays: the placement, hotness and
// recency columns are separate dense vectors indexed by PageId, so the
// tiering daemon reads a page's columns by id without striding through
// per-page structs. It visits only the pages its warm set marks (the ones
// that may have heat > 0), in id order; when nearly every page is warm,
// those visits are runs of consecutive ids over the packed columns. Callers
// keep the record-like view through page(), which returns a PageView of
// references into the columns (same field names as the old `Page` struct,
// so call sites read unchanged). Freed slots have node < 0; per-tier
// occupancy is derived from per-node counts.
//
// Allocations and frees are PageRuns (runs of consecutive ids), not one
// entry per page: fresh slots come out as one ascending run, and freed ids
// sit on a LIFO stack of runs, so a recycled region comes back as its freed
// runs reversed -- the order a per-id free-list stack would give.
//
// Next to the node column the allocator keeps two residency bitsets, one
// bit per page slot (word w covers ids 64w..64w+63): dram_bits() marks the
// pages resident on a DRAM node, cxl_bits() those on any other node, and a
// free slot is in neither. They change wherever the node column does, a
// word at a time where placement allows it: a batch of ascending ids takes
// whole words from masks of the placement pattern (one per pattern phase,
// built once per Allocate), Free clears each run's id range word by word,
// and MovePage flips a page's bits only when it changes tier. The daemon's
// warm pass reads residency 64 pages at a time from them.
#ifndef CXL_EXPLORER_SRC_OS_PAGE_ALLOCATOR_H_
#define CXL_EXPLORER_SRC_OS_PAGE_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/os/numa_policy.h"
#include "src/os/page.h"
#include "src/os/page_runs.h"
#include "src/topology/platform.h"
#include "src/util/status.h"

namespace cxl::os {

class PageAllocator {
 public:
  // `page_bytes` sets the placement granularity (default 2 MiB).
  explicit PageAllocator(const topology::Platform& platform,
                         uint64_t page_bytes = kDefaultPageBytes);

  // Allocates `count` pages under `policy`: the most recently freed ids
  // first, then fresh slots. Returns the page ids, or RESOURCE_EXHAUSTED if
  // the policy cannot be satisfied (kBind with full nodes, or the whole
  // machine is full); a failed call frees the pages it placed.
  StatusOr<PageRuns> Allocate(const NumaPolicy& policy, uint64_t count);

  // Frees previously allocated pages; their ids are recycled last first.
  void Free(const PageRuns& pages);

  // Moves a page to `target`. Returns RESOURCE_EXHAUSTED when the target
  // node is full (the caller — usually MigrationEngine — decides whether to
  // demote something first).
  Status MovePage(PageId page, topology::NodeId target);

  // Current placement of a page.
  topology::NodeId NodeOf(PageId page) const { return node_[page]; }

  // Mutable / const reference views over one page's metadata columns. Field
  // names match the historical `Page` struct; bind with `auto` (the views
  // are proxies of references, cheap to copy, never stored).
  PageView page(PageId id) { return PageView{node_[id], heat_[id], last_epoch_[id]}; }
  ConstPageView page(PageId id) const {
    return ConstPageView{node_[id], heat_[id], last_epoch_[id]};
  }

  // Raw read-only column access for the daemon's passes. Indexed by PageId
  // over [0, page_count()); freed slots have node < 0. The heat column is
  // written only through TieredMemory, and lags its pending decays (see
  // PageView).
  const topology::NodeId* node_column() const { return node_.data(); }
  const float* heat_column() const { return heat_.data(); }
  const uint32_t* epoch_column() const { return last_epoch_.data(); }

  // Residency bitsets (see the header comment): bit id % 64 of word id / 64
  // is set when page `id` is resident on a DRAM / a non-DRAM node. Both
  // span ceil(page_count() / 64) words; bits past page_count() are clear.
  const std::vector<uint64_t>& dram_bits() const { return dram_bits_; }
  const std::vector<uint64_t>& cxl_bits() const { return cxl_bits_; }

  // Freed ids awaiting reuse, as the stack Allocate pops from (top last).
  const PageRuns& free_runs() const { return free_; }

  // Pages currently resident on DRAM / CXL nodes (sums of per-node
  // occupancy). The daemon bounds its selection sizes with these, and
  // derives the count of zero-heat DRAM pages from the DRAM one.
  uint64_t DramResidentCount() const;
  uint64_t CxlResidentCount() const;

  // Whether `node` is a DRAM (top-tier) node, from a cached per-node table.
  bool IsDramNode(topology::NodeId node) const {
    return node_is_dram_[static_cast<size_t>(node)] != 0;
  }

  uint64_t page_bytes() const { return page_bytes_; }
  uint64_t FreePages(topology::NodeId node) const;
  uint64_t TotalPages(topology::NodeId node) const;
  uint64_t UsedPages(topology::NodeId node) const;
  // Free fraction across all DRAM nodes (used by demotion watermarks).
  double DramFreeFraction() const;

  uint64_t allocated_pages() const { return allocated_; }
  // Total page slots ever created (freed slots included); PageIds are dense
  // in [0, page_count()), and freed slots have node < 0.
  uint64_t page_count() const { return node_.size(); }
  const VmCounters& counters() const { return counters_; }
  VmCounters& mutable_counters() { return counters_; }

  const topology::Platform& platform() const { return platform_; }

 private:
  // The one heat writer: sampled accesses, quarantine and decay keep its
  // warm set in step with every write.
  friend class TieredMemory;
  float* mutable_heat_column() { return heat_.data(); }
  uint32_t* mutable_epoch_column() { return last_epoch_.data(); }

  // Picks a fallback node with space, preferring DRAM over CXL.
  topology::NodeId FallbackNode() const;
  // Unwinds an Allocate that placed the first `placed` of `out`'s ids, the
  // first `recycled` of which came off the free stack and the rest from
  // fresh slots at `base`.
  void UndoAllocate(PageRuns& out, uint64_t placed, uint64_t recycled, uint64_t base);

  // Sets the residency bit of page `id`, now placed on `node`.
  void MarkResident(PageId id, topology::NodeId node) {
    (IsDramNode(node) ? dram_bits_ : cxl_bits_)[id / 64] |= uint64_t{1} << (id % 64);
  }
  // Sizes both bitsets to cover page_count() slots.
  void ResizeBits();

  const topology::Platform& platform_;
  uint64_t page_bytes_;
  // Page metadata columns, indexed by PageId; grow monotonically.
  std::vector<topology::NodeId> node_;
  std::vector<float> heat_;
  std::vector<uint32_t> last_epoch_;
  std::vector<uint8_t> node_is_dram_;
  std::vector<uint64_t> dram_bits_;  // Residency bitsets, see dram_bits().
  std::vector<uint64_t> cxl_bits_;
  PageRuns free_;                    // Recycled ids; a stack, top last.
  std::vector<uint64_t> node_used_;  // Pages in use per node.
  std::vector<uint64_t> node_capacity_;
  uint64_t allocated_ = 0;
  VmCounters counters_;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_PAGE_ALLOCATOR_H_
