// Stress / reference-model tests for the simulation kernel and the
// statistics utilities they feed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/event_heap.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"

namespace cxl {
namespace {

TEST(EventQueueStressTest, RandomScheduleMatchesSortedReference) {
  // Thousands of randomly-timed events (including pushes made while
  // handling a pop) must pop in exact (time, insertion) order. Times fall
  // on a grid of 1000 points, so most are shared by several events and the
  // FIFO tie-break decides their order.
  struct Tag {
    uint64_t seq;
    bool spawns;  // Pushes one untracked child 1.0 after its own time.
  };
  sim::EventHeap<Tag> q;
  Rng rng(123);
  struct Stamp {
    double time;
    uint64_t seq;
  };
  constexpr uint64_t kUntracked = ~0ull;
  std::vector<Stamp> executed;
  std::vector<Stamp> expected;
  uint64_t seq = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<double>(rng.NextBounded(1000));
    const uint64_t s = seq++;
    expected.push_back({t, s});
    q.Push(t, Tag{s, false});
  }
  // A few events that spawn children relative to their own time.
  for (int i = 0; i < 100; ++i) {
    q.Push(static_cast<double>(rng.NextBounded(500)), Tag{kUntracked, true});
  }
  while (!q.empty()) {
    const Tag tag = q.Pop();
    if (tag.spawns) {
      q.Push(q.Now() + 1.0, Tag{kUntracked, false});
    }
    executed.push_back({q.Now(), tag.seq});
  }
  // The 5000 tracked events appear in nondecreasing-time order with FIFO
  // tie-breaks.
  std::vector<Stamp> tracked;
  for (const Stamp& s : executed) {
    if (s.seq != kUntracked) {
      tracked.push_back(s);
    }
  }
  ASSERT_EQ(tracked.size(), expected.size());
  std::stable_sort(expected.begin(), expected.end(), [](const Stamp& a, const Stamp& b) {
    return a.time < b.time;
  });
  for (size_t i = 0; i < tracked.size(); ++i) {
    ASSERT_DOUBLE_EQ(tracked[i].time, expected[i].time) << i;
    ASSERT_EQ(tracked[i].seq, expected[i].seq) << i;
  }
}

TEST(HistogramReferenceTest, QuantilesTrackExactSortedReference) {
  // Against three very different shapes, bucketed quantiles must stay
  // within the geometric bucket resolution (~2.4%) of exact quantiles.
  Rng rng(321);
  auto check = [&](auto draw, const char* label) {
    Histogram h;
    std::vector<double> exact;
    constexpr int kN = 200'000;
    exact.reserve(kN);
    for (int i = 0; i < kN; ++i) {
      const double x = draw();
      h.Record(x);
      exact.push_back(x);
    }
    std::sort(exact.begin(), exact.end());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      const double ref = exact[static_cast<size_t>(q * (kN - 1))];
      EXPECT_NEAR(h.ValueAtQuantile(q), ref, 0.04 * ref + 1.0) << label << " q=" << q;
    }
  };
  check([&] { return rng.NextExponential(250.0); }, "exponential");
  check([&] { return rng.NextDouble(10.0, 1000.0); }, "uniform");
  check([&] { return rng.NextPareto(100.0, 2.5); }, "pareto");
}

TEST(RngStatisticalTest, ChiSquareUniformity) {
  // 64 bins over 1e6 draws: chi-square must sit well inside the 99.9%
  // acceptance band (df=63 -> critical value ~106).
  Rng rng(555);
  constexpr int kBins = 64;
  constexpr int kN = 1'000'000;
  std::vector<int> bins(kBins, 0);
  for (int i = 0; i < kN; ++i) {
    ++bins[rng.NextBounded(kBins)];
  }
  const double expected = static_cast<double>(kN) / kBins;
  double chi2 = 0.0;
  for (int c : bins) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 106.0);
}

TEST(RngStatisticalTest, NoLaggedCorrelation) {
  // Serial correlation of successive doubles ~ 0.
  Rng rng(777);
  double prev = rng.NextDouble();
  double sum_xy = 0.0;
  double sum_x = 0.0;
  double sum_x2 = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.NextDouble();
    sum_xy += prev * x;
    sum_x += x;
    sum_x2 += x * x;
    prev = x;
  }
  const double mean = sum_x / kN;
  const double var = sum_x2 / kN - mean * mean;
  const double cov = sum_xy / kN - mean * mean;
  EXPECT_LT(std::abs(cov / var), 0.01);
}

}  // namespace
}  // namespace cxl
