// Machine-checkable correctness invariants for BandwidthSolver solutions.
//
// The contention solver sits under every end-to-end figure, so its output is
// held to an explicit contract rather than eyeballed:
//
//   conservation   per resource, sum of delivered flow bandwidth never
//                  exceeds capacity * kCapacityShare;
//   demand bound   no flow is granted more than it offered;
//   fair share     a flow that did not meet its demand
//                  has a saturated bottleneck resource on its path where its
//                  allocation is at least that of every other flow crossing
//                  the same resource — the defining property of max-min
//                  fairness;
//   work conservation  a saturated resource exists for
//                  every throttled flow; capacity is never left idle while a
//                  flow on it still wants more.
//
// The checker returns human-readable violation strings (empty = all hold) so
// tests, the calibration gate, and ad-hoc debugging share one implementation.
//
// The page allocator's bookkeeping is audited the same way:
//
//   occupancy      per-node used counts equal the node column's tallies;
//   residency      dram_bits() and cxl_bits() span the page slots, are
//                  disjoint, match the node column bit for bit (DRAM node,
//                  other node, free) and hold no bit past page_count();
//   free stack     the free PageRuns stack holds each slot with node < 0
//                  exactly once, and nothing else.
//
// And the tiering daemon's, between ticks, its WarmSet's first and then
// its PromotionLedger's:
//
//   spans          the heat column spans page_count(), and the warm set,
//                  heat bounds, decay counts and touched bits a word per
//                  64 page slots;
//   warm set       a superset of the pages with heat > 0;
//   heat bounds    every word's [lo, hi] brackets the heat of each of its
//                  page slots;
//   decay counts   no word has had more decays than the daemon has made.
// Heat here is each page's current heat (WarmSet::Heat), its column
// value with its word's pending decays applied.
//   ring           the promotion ring's slots and the recent set span a
//                  word per 64 page slots, and the recent set holds every
//                  page of every slot;
//   quarantine     no quarantined page was promoted after its quarantine
//                  (the ledger keeps every promotion of a page quarantined
//                  at the time).
//                  A quarantined page can still sit in DRAM: quarantine
//                  leaves it there when the low tier is full, and a freed
//                  quarantined id can be allocated to DRAM again.
#ifndef CXL_EXPLORER_SRC_CHECK_INVARIANTS_H_
#define CXL_EXPLORER_SRC_CHECK_INVARIANTS_H_

#include <string>
#include <vector>

#include "src/mem/bandwidth_solver.h"
#include "src/os/page_allocator.h"
#include "src/os/tiering.h"

namespace cxl::check {

// Verifies `sol` (produced by `solver.Solve()`) against the contract above.
// `tolerance` is relative, scaled by the magnitudes involved.
std::vector<std::string> SolverInvariantViolations(const mem::BandwidthSolver& solver,
                                                   const mem::BandwidthSolver::Solution& sol,
                                                   double tolerance = 1e-6);

// Verifies `alloc`'s occupancy counts, residency bitsets and free stack
// against its node column, per the contract above. O(page_count()).
std::vector<std::string> AllocatorInvariantViolations(const os::PageAllocator& alloc);

// Verifies `tiering`'s warm set, heat bounds, decay counts, promotion ring
// and quarantine against the current heats, per the contract above. Holds
// after every Tick() (an allocation since the last tick may leave lower
// bounds stale until the next one). O(page_count()).
std::vector<std::string> TieringInvariantViolations(const os::TieredMemory& tiering);

}  // namespace cxl::check

#endif  // CXL_EXPLORER_SRC_CHECK_INVARIANTS_H_
