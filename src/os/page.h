// Page-granular memory bookkeeping shared by the OS-layer components.
//
// The simulator tracks placement and hotness at a fixed page granularity.
// We default to 2 MiB pages (huge-page granularity): large enough to keep
// bookkeeping cheap for multi-hundred-GiB working sets, small enough that
// page-placement policies behave like their kernel counterparts. Hot-page
// clustering (hot keys residing on a small set of hot pages) is what the
// kernel's hot-page selection exploits; the workloads model that clustering
// explicitly.
#ifndef CXL_EXPLORER_SRC_OS_PAGE_H_
#define CXL_EXPLORER_SRC_OS_PAGE_H_

#include <cstdint>
#include <limits>

#include "src/topology/platform.h"
#include "src/util/units.h"

namespace cxl::os {

using PageId = uint64_t;
inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

// Default page granularity for placement bookkeeping.
inline constexpr uint64_t kDefaultPageBytes = 2 * kMiB;

// Per-page metadata, as a value type. PageAllocator stores these fields
// structure-of-arrays (packed node/heat/recency columns, so daemon scans
// stream instead of striding); the struct remains the canonical record shape
// for tests and documentation.
struct Page {
  topology::NodeId node = -1;  // Current placement.
  float heat = 0.0f;           // Decayed (sampled) access count.
  // Daemon epoch of the most recent observed access; drives the
  // MRU-balancing promotion mode (§2.3's earlier NUMA-balancing patch).
  uint32_t last_decay_epoch = 0;
};

// Reference views over one page's columns, returned by PageAllocator::page().
// Field names match `Page`, so `allocator.page(id).heat` reads identically
// whether the backing store is AoS or SoA. Bind with `auto`; the views hold
// references into the allocator's columns and must not outlive it. Heat is
// read-only even here: only TieredMemory writes it (sampled accesses,
// quarantine, decay) and only PageAllocator::Allocate resets it, which is
// what keeps the daemon's warm set a superset of the pages with heat > 0.
// Under a daemon the stored heat lags the decays its word has pending:
// read current heat through TieredMemory::Heat, or after SettleHeat.
struct PageView {
  topology::NodeId& node;
  const float& heat;
  uint32_t& last_decay_epoch;
};

struct ConstPageView {
  const topology::NodeId& node;
  const float& heat;
  const uint32_t& last_decay_epoch;
};

// vmstat-style counters exposed by the tiering subsystem, named after their
// kernel counterparts so experiment logs read like /proc/vmstat.
struct VmCounters {
  uint64_t pgalloc = 0;             // Pages allocated.
  uint64_t pgfree = 0;              // Pages freed.
  uint64_t pgpromote_success = 0;   // Pages promoted low tier -> top tier.
  uint64_t pgpromote_candidate = 0; // Hot pages considered for promotion.
  uint64_t pgdemote = 0;            // Pages demoted top tier -> low tier.
  uint64_t numa_hint_faults = 0;    // Sampled accesses (hint faults).
  uint64_t migrate_failed = 0;      // Migrations skipped (no space / limit).
  uint64_t promote_rate_limited = 0;// Promotions deferred by the rate limit.

  uint64_t MigratedPages() const { return pgpromote_success + pgdemote; }
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_PAGE_H_
