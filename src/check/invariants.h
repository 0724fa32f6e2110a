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
#ifndef CXL_EXPLORER_SRC_CHECK_INVARIANTS_H_
#define CXL_EXPLORER_SRC_CHECK_INVARIANTS_H_

#include <string>
#include <vector>

#include "src/mem/bandwidth_solver.h"

namespace cxl::check {

// Verifies `sol` (produced by `solver.Solve()`) against the contract above.
// `tolerance` is relative, scaled by the magnitudes involved.
std::vector<std::string> SolverInvariantViolations(const mem::BandwidthSolver& solver,
                                                   const mem::BandwidthSolver::Solution& sol,
                                                   double tolerance = 1e-6);

}  // namespace cxl::check

#endif  // CXL_EXPLORER_SRC_CHECK_INVARIANTS_H_
