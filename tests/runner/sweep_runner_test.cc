#include "src/runner/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/arena.h"
#include "src/util/rng.h"

namespace cxl::runner {
namespace {

// A deterministic, seed-sensitive cell: hashes `draws` Rng outputs. Any
// difference in the seed a cell receives (e.g. from a racy seed derivation)
// changes the result.
uint64_t SeedFingerprint(uint64_t seed, int draws) {
  Rng rng(seed);
  uint64_t h = 0;
  for (int i = 0; i < draws; ++i) {
    h = SplitMix64(h ^ rng.NextU64());
  }
  return h;
}

TEST(SweepRunnerTest, SerialAndEightThreadSweepsProduceIdenticalResults) {
  std::vector<int> cells(64);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<int>(i);
  }
  const auto fn = [](const int& cell, uint64_t seed) -> StatusOr<uint64_t> {
    // Adversarial durations: early cells are slow, late cells fast, so under
    // 8 workers completion order inverts the submission order.
    std::this_thread::sleep_for(std::chrono::microseconds(cell < 8 ? 2000 : 10));
    return SeedFingerprint(seed, 100 + cell);
  };
  SweepOptions serial;
  serial.jobs = 1;
  serial.base_seed = 42;
  SweepOptions parallel;
  parallel.jobs = 8;
  parallel.base_seed = 42;

  const auto a = RunSweep(cells, fn, serial);
  const auto b = RunSweep(cells, fn, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(SweepRunnerTest, OutputOrderMatchesInputOrderUnderAdversarialDurations) {
  std::vector<int> cells(32);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<int>(i);
  }
  SweepOptions options;
  options.jobs = 8;
  const auto out = RunSweep(
      cells,
      [&cells](const int& cell, uint64_t) -> StatusOr<int> {
        // Later cells finish first.
        const auto rank = static_cast<int>(cells.size()) - cell;
        std::this_thread::sleep_for(std::chrono::microseconds(rank * 100));
        return cell * 7;
      },
      options);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ((*out)[i], static_cast<int>(i) * 7) << "slot " << i;
  }
}

TEST(SweepRunnerTest, ErrorFromAnyCellPropagates) {
  const std::vector<int> cells = {0, 1, 2, 3, 4, 5, 6, 7};
  SweepOptions options;
  options.jobs = 4;
  const auto out = RunSweep(
      cells,
      [](const int& cell, uint64_t) -> StatusOr<int> {
        if (cell == 5) {
          return Status::Internal("cell 5 exploded");
        }
        return cell;
      },
      options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(out.status().message(), "cell 5 exploded");
}

TEST(SweepRunnerTest, FirstErrorByInputOrderWinsRegardlessOfCompletionOrder) {
  const std::vector<int> cells = {0, 1, 2, 3, 4, 5, 6, 7};
  SweepOptions options;
  options.jobs = 8;
  const auto out = RunSweep(
      cells,
      [](const int& cell, uint64_t) -> StatusOr<int> {
        if (cell == 2) {
          // The later-indexed error finishes first.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return Status::InvalidArgument("cell 2");
        }
        if (cell == 6) {
          return Status::Internal("cell 6");
        }
        return cell;
      },
      options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(), "cell 2");
}

TEST(SweepRunnerTest, EmptySweepSucceeds) {
  const std::vector<int> cells;
  const auto out =
      RunSweep(cells, [](const int& cell, uint64_t) -> StatusOr<int> { return cell; });
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(SweepRunnerTest, StatsAccountForEveryCell) {
  const std::vector<int> cells = {0, 1, 2, 3};
  SweepOptions options;
  options.jobs = 2;
  SweepStats stats;
  const auto out = RunSweep(
      cells,
      [](const int& cell, uint64_t) -> StatusOr<int> {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return cell;
      },
      options, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.cells, 4u);
  EXPECT_EQ(stats.jobs, 2);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GE(stats.serial_ms, stats.max_cell_ms);
  EXPECT_GT(stats.max_cell_ms, 0.0);
  EXPECT_GT(stats.Speedup(), 0.0);
  EXPECT_NE(stats.Summary().find("cells=4"), std::string::npos);
}

TEST(SweepRunnerTest, CellSeedsAreDistinctAndStable) {
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < 1000; ++i) {
    seeds.insert(CellSeed(1, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // No collisions across a large grid.
  EXPECT_EQ(CellSeed(1, 7), CellSeed(1, 7));
  EXPECT_NE(CellSeed(1, 7), CellSeed(2, 7));  // Base seed matters.
}

TEST(SweepRunnerTest, ResolveJobsPrecedence) {
  unsetenv("CXL_JOBS");
  EXPECT_EQ(ResolveJobs(5), 5);
  EXPECT_GE(ResolveJobs(0), 1);  // hardware_concurrency fallback.
  setenv("CXL_JOBS", "3", 1);
  EXPECT_EQ(ResolveJobs(0), 3);
  EXPECT_EQ(ResolveJobs(7), 7);  // Explicit request beats the env.
  setenv("CXL_JOBS", "garbage", 1);
  EXPECT_GE(ResolveJobs(0), 1);  // Malformed env degrades to auto.
  unsetenv("CXL_JOBS");
  const int auto_jobs = ResolveJobs(0);
  for (const char* malformed : {"garbage", "+2", " 2", "2 "}) {
    setenv("CXL_JOBS", malformed, 1);
    EXPECT_EQ(ResolveJobs(0), auto_jobs) << "CXL_JOBS='" << malformed << "'";
  }
  unsetenv("CXL_JOBS");
}

// Worker counts parse whole, as every other numeric flag does.
TEST(SweepRunnerTest, ParsePositiveIntTakesOnlyWholeDigits) {
  EXPECT_EQ(ParsePositiveInt("2"), 2);
  EXPECT_EQ(ParsePositiveInt("1048576"), 1 << 20);
  for (const char* malformed :
       {"", "+2", " 2", "2 ", "\t2", "0", "-1", "1048577", "0x10", "2.0", "99999999999"}) {
    EXPECT_EQ(ParsePositiveInt(malformed), 0) << "'" << malformed << "'";
  }
  EXPECT_EQ(ParsePositiveInt(nullptr), 0);
}

TEST(SweepRunnerTest, CellRecordsCarryLabelsAndTimings) {
  const std::vector<int> cells = {0, 1, 2};
  SweepOptions options;
  options.jobs = 1;
  options.cell_labels = {"alpha", "beta"};  // Deliberately short by one.
  SweepStats stats;
  const auto out = RunSweep(
      cells,
      [](const int& cell, uint64_t) -> StatusOr<int> {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return cell;
      },
      options, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(stats.cell_records.size(), 3u);
  EXPECT_EQ(stats.cell_records[0].label, "alpha");
  EXPECT_EQ(stats.cell_records[1].label, "beta");
  EXPECT_EQ(stats.cell_records[2].label, "cell2");  // Fallback label.
  double serial = 0.0;
  for (const auto& record : stats.cell_records) {
    EXPECT_GT(record.ms, 0.0);
    EXPECT_GE(record.start_ms, 0.0);
    serial += record.ms;
  }
  EXPECT_DOUBLE_EQ(serial, stats.serial_ms);
  // Serial execution: cells start in order.
  EXPECT_LE(stats.cell_records[0].start_ms, stats.cell_records[1].start_ms);
  EXPECT_LE(stats.cell_records[1].start_ms, stats.cell_records[2].start_ms);
}

TEST(SweepRunnerTest, MoreJobsThanCellsIsClamped) {
  const std::vector<int> cells = {1, 2};
  SweepOptions options;
  options.jobs = 64;
  SweepStats stats;
  const auto out = RunSweep(
      cells, [](const int& cell, uint64_t) -> StatusOr<int> { return cell * 2; }, options,
      &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.jobs, 2);  // Never more workers than cells.
  EXPECT_EQ((*out)[0], 2);
  EXPECT_EQ((*out)[1], 4);
}

TEST(SweepRunnerTest, CellRecordsSurviveCallerScratchReuse) {
  // Cell labels are often built in per-sweep scratch (an arena reset between
  // sweeps, a reused format buffer). The runner deep-copies the characters
  // when the cell starts, so the records must stay intact after the caller's
  // backing storage is clobbered and the options object itself is gone.
  Arena arena;
  const std::vector<int> cells = {10, 20, 30};
  SweepStats stats;
  {
    // Labels backed by arena storage, handed over as string views into it.
    char* scratch = arena.AllocateArray<char>(64);
    std::snprintf(scratch, 64, "cfg=a/seed=1");
    char* scratch2 = arena.AllocateArray<char>(64);
    std::snprintf(scratch2, 64, "cfg=b/seed=2");
    SweepOptions options;
    options.jobs = 2;
    options.cell_labels = {std::string(scratch), std::string(scratch2)};  // Cell 2: fallback.
    const auto out = RunSweep(
        cells, [](const int& cell, uint64_t) -> StatusOr<int> { return cell + 1; }, options,
        &stats);
    ASSERT_TRUE(out.ok());
  }
  // Simulate the next sweep recycling the scratch: overwrite every byte.
  arena.Reset();
  char* reused = arena.AllocateArray<char>(128);
  std::memset(reused, 'X', 128);

  ASSERT_EQ(stats.cell_records.size(), 3u);
  EXPECT_EQ(stats.cell_records[0].label, "cfg=a/seed=1");
  EXPECT_EQ(stats.cell_records[1].label, "cfg=b/seed=2");
  EXPECT_EQ(stats.cell_records[2].label, "cell2");  // Short label vector falls back.
  double serial = 0.0;
  double max_cell = 0.0;
  for (const SweepStats::CellRecord& record : stats.cell_records) {
    EXPECT_GE(record.ms, 0.0);
    EXPECT_GE(record.start_ms, 0.0);
    serial += record.ms;
    max_cell = std::max(max_cell, record.ms);
  }
  EXPECT_DOUBLE_EQ(stats.serial_ms, serial);
  EXPECT_DOUBLE_EQ(stats.max_cell_ms, max_cell);
}

}  // namespace
}  // namespace cxl::runner
