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

#include "src/util/units.h"

namespace cxl::os {

using PageId = uint64_t;
inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

// Default page granularity for placement bookkeeping.
inline constexpr uint64_t kDefaultPageBytes = 2 * kMiB;

// A read-only view of one page's metadata, returned by
// PageAllocator::page(). The allocator stores it structure-of-arrays: a
// one-byte node column (current placement), and a heat column (decayed,
// sampled access count) only while a daemon tracks the allocator. Whether a
// page was touched since the daemon's last tick is one bit of the daemon's
// own (WarmSet::touched()). Bind with `auto`; the view holds references
// into the allocator's columns and must not outlive it. Only the allocator
// places pages, only the daemon's WarmSet writes heat (sampled accesses,
// quarantine, decay) and only PageAllocator::Allocate resets it, which
// keeps the warm set a superset of the pages with heat > 0. Under a daemon
// the stored heat lags the decays its word has pending: read current heat
// through TieredMemory::Heat, or after SettleHeat. An allocator no daemon
// tracks stores no heat, and its views read heat 0.
struct PageView {
  const int8_t& node;
  const float& heat;
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
