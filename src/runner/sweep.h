// Deterministic parallel sweep execution.
//
// Every figure in the paper is a sweep — a (configuration × workload) grid
// whose cells are independent: each builds its own Platform, PageAllocator
// and store. SweepRunner executes such a grid on a ThreadPool while keeping
// the results *bit-identical regardless of thread count or completion order*:
//
//   - each cell receives a private seed derived from (base_seed, cell_index)
//     via SplitMix64, never from a shared RNG;
//   - the output vector preserves input order (cell i writes slot i);
//   - the first error Status (by cell index, not by completion time) is
//     propagated and the partial results discarded.
//
// Wall-clock per cell is recorded into SweepStats so benches can report the
// parallel speedup against the serial estimate (the sum of cell times).
#ifndef CXL_EXPLORER_SRC_RUNNER_SWEEP_H_
#define CXL_EXPLORER_SRC_RUNNER_SWEEP_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/runner/thread_pool.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cxl::runner {

// Worker count resolution: an explicit request > 0 wins; otherwise the
// CXL_JOBS environment variable; otherwise std::thread::hardware_concurrency
// (minimum 1).
int ResolveJobs(int requested);

// Parses a strictly positive integer up to 2^20 (a worker count, from
// --jobs or CXL_JOBS), whole, as ParseNumber does: no sign, no blanks.
// Returns 0 on any malformed input.
int ParsePositiveInt(const char* text);

// The seed cell `index` of a sweep draws from. Pure function of
// (base_seed, index): two sweeps with the same base seed assign every cell
// the same stream no matter how many workers execute them.
constexpr uint64_t CellSeed(uint64_t base_seed, size_t index) {
  return SplitMix64(SplitMix64(base_seed) ^
                    (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(index) + 1)));
}

struct SweepOptions {
  // 0 = auto (CXL_JOBS env, then hardware_concurrency).
  int jobs = 0;
  // Root of the per-cell seed derivation.
  uint64_t base_seed = 1;
  // Optional labels, parallel to the cell vector; SweepStats cell records
  // fall back to "cell<i>" when absent (or when the vector is short).
  std::vector<std::string> cell_labels;
};

// Timing summary of one sweep. serial_ms is the sum of per-cell wall times —
// an estimate of what a one-at-a-time loop would have cost.
struct SweepStats {
  size_t cells = 0;
  int jobs = 0;
  double wall_ms = 0.0;
  double serial_ms = 0.0;
  double max_cell_ms = 0.0;

  // One record per cell, in cell-index order: where the cell's wall time
  // went. start_ms is the cell's start offset from the sweep start, so the
  // records reconstruct the parallel schedule (telemetry renders them as one
  // span per cell). Summary() does not read these.
  struct CellRecord {
    std::string label;
    double start_ms = 0.0;
    double ms = 0.0;
  };
  std::vector<CellRecord> cell_records;

  double Speedup() const { return wall_ms > 0.0 ? serial_ms / wall_ms : 0.0; }

  // "cells=28 jobs=8 wall=3210ms serial-est=21400ms max-cell=1100ms
  //  speedup=6.7x" — intended for stderr so table output on stdout stays
  // byte-identical across thread counts.
  std::string Summary() const;
};

// Runs fn(cell, seed) over every cell. Fn must return StatusOr<Result> and
// must not touch shared mutable state (the compiler cannot check that; the
// tests/runner suite and the TSan CI job do). With jobs == 1 the cells run
// inline on the calling thread — no pool, same results.
template <typename Cell, typename Fn>
auto RunSweep(const std::vector<Cell>& cells, Fn&& fn, const SweepOptions& options = {},
              SweepStats* stats = nullptr)
    -> StatusOr<std::vector<typename std::invoke_result_t<Fn&, const Cell&, uint64_t>::value_type>> {
  using CellReturn = std::invoke_result_t<Fn&, const Cell&, uint64_t>;
  using Result = typename CellReturn::value_type;
  using Clock = std::chrono::steady_clock;

  const size_t n = cells.size();
  const int jobs = std::max(1, std::min<int>(ResolveJobs(options.jobs), static_cast<int>(std::max<size_t>(n, 1))));

  // Slot i is written only by the task for cell i; the pool's Wait() (or the
  // serial loop) orders all writes before the merge below.
  std::vector<std::optional<Result>> slots(n);
  std::vector<Status> statuses(n, Status::Ok());
  std::vector<SweepStats::CellRecord> records(n);

  const auto sweep_start = Clock::now();
  auto run_cell = [&](size_t i) {
    // The whole record — label copy included — is captured here, under the
    // cell's own lifetime. Callers may hand labels backed by per-sweep
    // scratch (an arena reset between sweeps, a reused buffer); deep-copying
    // the characters before the cell body runs means the records stay valid
    // however long the caller keeps the SweepStats.
    SweepStats::CellRecord& record = records[i];
    record.label = i < options.cell_labels.size()
                       ? std::string(options.cell_labels[i].data(), options.cell_labels[i].size())
                       : "cell" + std::to_string(i);
    const auto start = Clock::now();
    record.start_ms = std::chrono::duration<double, std::milli>(start - sweep_start).count();
    CellReturn cell_result = fn(cells[i], CellSeed(options.base_seed, i));
    record.ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    if (cell_result.ok()) {
      slots[i] = std::move(cell_result).value();
    } else {
      statuses[i] = cell_result.status();
    }
  };

  if (jobs <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      run_cell(i);
    }
  } else {
    ThreadPool pool(jobs);
    for (size_t i = 0; i < n; ++i) {
      pool.Submit([&run_cell, i] { run_cell(i); });
    }
    pool.Wait();
  }

  if (stats != nullptr) {
    stats->cells = n;
    stats->jobs = jobs;
    stats->wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - sweep_start).count();
    stats->serial_ms = 0.0;
    stats->max_cell_ms = 0.0;
    for (const SweepStats::CellRecord& record : records) {
      stats->serial_ms += record.ms;
      stats->max_cell_ms = std::max(stats->max_cell_ms, record.ms);
    }
    stats->cell_records = std::move(records);
  }

  // First error by input order, independent of completion order.
  for (const Status& status : statuses) {
    if (!status.ok()) {
      return status;
    }
  }
  std::vector<Result> out;
  out.reserve(n);
  for (std::optional<Result>& slot : slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace cxl::runner

#endif  // CXL_EXPLORER_SRC_RUNNER_SWEEP_H_
