#include "src/util/histogram.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace cxl {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.p50(), 100.0, 3.0);
  EXPECT_NEAR(h.p99(), 100.0, 3.0);
  EXPECT_EQ(h.min(), 100.0);
  EXPECT_EQ(h.max(), 100.0);
}

TEST(HistogramTest, QuantilesOfUniformSamples) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(static_cast<double>(i));
  }
  // ~2.4% bucket resolution.
  EXPECT_NEAR(h.p50(), 5000.0, 200.0);
  EXPECT_NEAR(h.p99(), 9900.0, 350.0);
  EXPECT_NEAR(h.ValueAtQuantile(0.1), 1000.0, 50.0);
}

TEST(HistogramTest, MeanIsExact) {
  // The mean is tracked exactly (running sum), not bucketed.
  Histogram h;
  h.Record(1.0);
  h.Record(2.0);
  h.Record(3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramTest, RecordManyEquivalentToLoop) {
  Histogram a;
  Histogram b;
  a.RecordMany(500.0, 1000);
  for (int i = 0; i < 1000; ++i) {
    b.Record(500.0);
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(100.0);
  b.Record(10000.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100.0);
  EXPECT_EQ(a.max(), 10000.0);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(1.0, 1000.0, 32);
  h.Record(0.001);
  h.Record(1e9);
  EXPECT_EQ(h.count(), 2u);
  // No crash; quantiles bracket the clamped samples.
  EXPECT_LE(h.p50(), 1e9);
}

TEST(HistogramTest, QuantilesAreMonotone) {
  Histogram h;
  Rng rng(6);
  for (int i = 0; i < 50000; ++i) {
    h.Record(rng.NextPareto(100.0, 2.0));
  }
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double v = h.ValueAtQuantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(HistogramTest, MergeIntoEmptyTakesOtherExtremes) {
  Histogram empty;
  Histogram full;
  full.Record(200.0);
  full.Record(800.0);
  empty.Merge(full);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.min(), 200.0);
  EXPECT_DOUBLE_EQ(empty.max(), 800.0);
}

TEST(HistogramTest, MergeEmptyOtherLeavesExtremesAlone) {
  Histogram full;
  Histogram empty;
  full.Record(200.0);
  full.Record(800.0);
  full.Merge(empty);
  EXPECT_EQ(full.count(), 2u);
  EXPECT_DOUBLE_EQ(full.min(), 200.0);
  EXPECT_DOUBLE_EQ(full.max(), 800.0);
}

TEST(HistogramTest, MergeTwoEmptiesStaysEmpty) {
  Histogram a;
  Histogram b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  EXPECT_EQ(a.ValueAtQuantile(0.5), 0.0);
}

TEST(HistogramTest, ZeroQuantileReturnsMinRecorded) {
  Histogram h;
  h.Record(120.0);
  h.Record(4000.0);
  h.Record(90000.0);
  // q=0 lands in the lowest non-empty bucket, clamped to the observed min.
  EXPECT_NEAR(h.ValueAtQuantile(0.0), 120.0, 120.0 * 0.03);
  EXPECT_GE(h.ValueAtQuantile(0.0), h.min());
  EXPECT_LE(h.ValueAtQuantile(1.0), h.max());
  EXPECT_NEAR(h.ValueAtQuantile(1.0), 90000.0, 90000.0 * 0.03);
}

TEST(HistogramTest, SingleBucketHistogramQuantiles) {
  // All samples identical: every quantile collapses to that value.
  Histogram h;
  h.RecordMany(512.0, 1000);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(h.ValueAtQuantile(q), 512.0, 512.0 * 0.03) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), 512.0);
  EXPECT_DOUBLE_EQ(h.max(), 512.0);
}

TEST(HistogramTest, ExponentialTailQuantiles) {
  // p99 of Exp(mean) is mean * ln(100) ~ 4.6x mean; check within bucket
  // error. This is the draw the KeyDB tail-latency CDF relies on.
  Histogram h;
  Rng rng(7);
  const double mean = 250.0;
  for (int i = 0; i < 400000; ++i) {
    h.Record(rng.NextExponential(mean));
  }
  EXPECT_NEAR(h.p99(), mean * 4.605, mean * 0.3);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every observable of `got` equals `want` bit for bit.
void ExpectBitIdentical(const Histogram& got, const Histogram& want) {
  ASSERT_EQ(got.count(), want.count());
  EXPECT_EQ(Bits(got.sum()), Bits(want.sum()));
  EXPECT_EQ(Bits(got.min()), Bits(want.min()));
  EXPECT_EQ(Bits(got.max()), Bits(want.max()));
  // Same buckets: the value at every rank lands in the same bucket.
  const auto n = static_cast<double>(want.count());
  for (uint64_t rank = 1; rank <= want.count(); ++rank) {
    const double q = (static_cast<double>(rank) - 0.5) / n;
    ASSERT_EQ(Bits(got.ValueAtQuantile(q)), Bits(want.ValueAtQuantile(q))) << "rank " << rank;
  }
}

// The KV server's three latency histograms: all ops, then reads (part 0)
// and updates (part 1), one layout.
struct SplitHistograms {
  Histogram all{0.1, 1e7, 96};
  Histogram first{0.1, 1e7, 96};
  Histogram second{0.1, 1e7, 96};

  // The reference, a batch recorded sample by sample: every sample into
  // `all`, then each part's samples, in array order, into that part.
  void RecordBatchEach(const std::vector<double>& values, const std::vector<uint8_t>& in_second) {
    for (const double v : values) {
      all.Record(v);
    }
    for (const uint8_t part : {0, 1}) {
      for (size_t i = 0; i < values.size(); ++i) {
        if (in_second[i] == part) {
          (part != 0 ? second : first).Record(values[i]);
        }
      }
    }
  }

  void RecordBatchSplit(const std::vector<double>& values, const std::vector<uint8_t>& in_second) {
    all.RecordBatchSplit(values.data(), in_second.data(), values.size(), first, second);
  }

  void Record(double value, bool in_second) {
    all.Record(value);
    (in_second ? second : first).Record(value);
  }
};

void ExpectBitIdentical(const SplitHistograms& got, const SplitHistograms& want) {
  {
    SCOPED_TRACE("all");
    ExpectBitIdentical(got.all, want.all);
  }
  {
    SCOPED_TRACE("first");
    ExpectBitIdentical(got.first, want.first);
  }
  {
    SCOPED_TRACE("second");
    ExpectBitIdentical(got.second, want.second);
  }
}

// One batch: continuous latencies with runs of repeats (each part sees a
// value again after the other part took it) and values at and past both
// ends of the covered range; each sample goes to the second part with
// probability `second_share`.
void MakeBatch(Rng& rng, size_t n, double second_share, std::vector<double>* values,
               std::vector<uint8_t>* in_second) {
  values->clear();
  in_second->clear();
  for (size_t i = 0; i < n; ++i) {
    double v = 0.0;
    switch (rng.NextBounded(8)) {
      case 0:  // Repeat the previous sample.
        v = values->empty() ? 5.0 : values->back();
        break;
      case 1:  // At, below or just above the minimum.
        v = std::array<double, 4>{0.1, 0.05, 0.0, std::nextafter(0.1, 1.0)}[rng.NextBounded(4)];
        break;
      case 2:  // At, above or just below the maximum.
        v = std::array<double, 3>{1e7, 2.5e7, std::nextafter(1e7, 0.0)}[rng.NextBounded(3)];
        break;
      case 3:  // A value seen a few samples back.
        v = values->size() < 4 ? 3.0 : (*values)[values->size() - 1 - rng.NextBounded(4)];
        break;
      default:
        v = rng.NextExponential(40.0);
        break;
    }
    values->push_back(v);
    in_second->push_back(rng.NextBool(second_share) ? 1 : 0);
  }
}

// RecordBatchSplit equals a batch recorded sample by sample into all three
// histograms, bit for bit, across a run of epoch-like batches that follows
// per-sample Records: mixed, single-part and empty batches. Records after each batch (repeats
// of the last values included) check that every cache it left holds a true
// (value, bucket) pair.
TEST(HistogramTest, RecordBatchSplitEqualsRecordBatchIntoEachHistogram) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng(seed);
    SplitHistograms split;
    SplitHistograms each;
    // Earlier per-sample Records leave each cache holding its own pair.
    for (const auto& [value, in_second] :
         {std::pair{12.5, false}, std::pair{12.5, true}, std::pair{80.0, true},
          std::pair{3.25, false}}) {
      split.Record(value, in_second);
      each.Record(value, in_second);
    }
    std::vector<double> values;
    std::vector<uint8_t> in_second;
    // (samples, share of updates): mixed, empty, all-read and all-update.
    const std::pair<size_t, double> batches[] = {
        {500, 0.5}, {0, 0.5}, {300, 0.0}, {300, 1.0}, {1, 0.5},
        {2000, 0.5}, {0, 1.0}, {700, 1.0}, {700, 0.5},
    };
    for (const auto& [n, second_share] : batches) {
      MakeBatch(rng, n, second_share, &values, &in_second);
      split.RecordBatchSplit(values, in_second);
      each.RecordBatchEach(values, in_second);
      ExpectBitIdentical(split, each);
      // The last values again, a new value, and a repeat of it, into each
      // part: a cache holding a stale bucket would misfile them.
      const double last = values.empty() ? 9.0 : values.back();
      const double before_last = values.size() < 2 ? 11.0 : values[values.size() - 2];
      for (const double v : {last, before_last, rng.NextExponential(40.0)}) {
        for (const bool part : {false, true}) {
          split.Record(v, part);
          each.Record(v, part);
          split.Record(v, part);
          each.Record(v, part);
        }
      }
      ExpectBitIdentical(split, each);
      if (testing::Test::HasFailure()) {
        return;
      }
    }
    EXPECT_GT(split.first.count(), 0u);
    EXPECT_GT(split.second.count(), 0u);
  }
}

}  // namespace
}  // namespace cxl
