#include "src/util/distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace cxl {
namespace {

TEST(UniformDistributionTest, CoversRangeEvenly) {
  Rng rng(1);
  UniformDistribution dist(10);
  std::vector<int> counts(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    ++counts[dist.Next(rng)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 0.1, 0.01);
  }
}

TEST(ZipfianDistributionTest, RankZeroIsMostPopular) {
  Rng rng(2);
  ZipfianDistribution dist(1000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    ++counts[dist.Next(rng)];
  }
  // Rank 0 strictly more popular than rank 10, which beats rank 100.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(ZipfianDistributionTest, EmpiricalFrequencyMatchesTheory) {
  Rng rng(3);
  ZipfianDistribution dist(10000);
  constexpr int kN = 500000;
  int rank0 = 0;
  for (int i = 0; i < kN; ++i) {
    rank0 += dist.Next(rng) == 0 ? 1 : 0;
  }
  // Rank 0's mass is 1 / 1^theta over the normalising constant.
  const double expected = 1.0 / dist.zeta_n();
  EXPECT_NEAR(static_cast<double>(rank0) / kN, expected, expected * 0.1);
}

TEST(ZipfianDistributionTest, StaysInRange) {
  Rng rng(4);
  ZipfianDistribution dist(100);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_LT(dist.Next(rng), 100u);
  }
}

TEST(ZipfianDistributionTest, HotSetConcentration) {
  // With theta=0.99 and 1M items, the hottest ~10% of items should receive
  // the large majority of accesses — this locality is what makes the paper's
  // Hot-Promote policy effective for KeyDB (§4.1.2).
  Rng rng(5);
  ZipfianDistribution dist(1000000);
  constexpr int kN = 200000;
  int in_hot_tenth = 0;
  for (int i = 0; i < kN; ++i) {
    in_hot_tenth += dist.Next(rng) < 100000 ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(in_hot_tenth) / kN, 0.7);
}

TEST(ZipfianDistributionTest, GrowToExtendsRange) {
  Rng rng(6);
  ZipfianDistribution dist(10);
  dist.GrowTo(1000);
  EXPECT_EQ(dist.item_count(), 1000u);
  bool saw_big = false;
  for (int i = 0; i < 100000; ++i) {
    if (dist.Next(rng) >= 10) {
      saw_big = true;
      break;
    }
  }
  EXPECT_TRUE(saw_big);
}

// Gray et al.'s Zipfian with the rank-1 bound 1 + 0.5^theta evaluated inline
// on every draw, as ZipfianDistribution::Next once did. zeta(n) comes from
// ZetaSum, whose left-to-right sum GrowTo's incremental update continues.
class InlineBoundZipfian {
 public:
  InlineBoundZipfian(uint64_t n, double theta)
      : theta_(theta), zeta_two_(0.0 + 1.0 / std::pow(1.0, theta) + 1.0 / std::pow(2.0, theta)) {
    Resize(n);
  }

  void GrowTo(uint64_t n) {
    if (n > n_) {
      Resize(n);
    }
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zeta_n_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    const auto rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                            std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

  uint64_t n() const { return n_; }

 private:
  void Resize(uint64_t n) {
    n_ = n;
    zeta_n_ = ZetaSum(n, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta_two_ / zeta_n_);
  }

  double theta_;
  double zeta_two_;
  uint64_t n_ = 0;
  double zeta_n_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// The rank-1 bound ZipfianDistribution computes once in its constructor
// draws the sequence the inline bound drew, for both YCSB forms (plain and
// LatestDistribution's inner Zipfian), across GrowTo calls.
TEST(ZipfianDistributionTest, HoistedRankOneBoundDrawsTheInlineSequence) {
  constexpr int kDrawsPerSize = 4000;
  uint64_t rank_ones = 0;
  for (const double theta : {0.5, 0.99}) {
    for (const uint64_t n : {uint64_t{2}, uint64_t{3}, uint64_t{1} << 20, uint64_t{1} << 26}) {
      for (const uint64_t seed : {1u, 7u, 1234567u}) {
        SCOPED_TRACE(testing::Message() << "theta=" << theta << " n=" << n << " seed=" << seed);
        InlineBoundZipfian reference(n, theta);
        ZipfianDistribution zipf(n, theta);
        LatestDistribution latest(n, theta);
        Rng ref_rng(seed);
        Rng zipf_rng(seed);
        Rng latest_rng(seed);
        for (const uint64_t grow : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{1000}}) {
          reference.GrowTo(reference.n() + grow);
          zipf.GrowTo(zipf.item_count() + grow);
          latest.GrowTo(latest.item_count() + grow);
          ASSERT_EQ(zipf.item_count(), reference.n());
          ASSERT_EQ(latest.item_count(), reference.n());
          for (int i = 0; i < kDrawsPerSize; ++i) {
            const uint64_t want = reference.Next(ref_rng);
            ASSERT_EQ(zipf.Next(zipf_rng), want) << "draw " << i << " after +" << grow;
            // Latest's inner Zipfian consumes the twin of this stream.
            ASSERT_EQ(latest.Next(latest_rng), reference.n() - 1 - want)
                << "draw " << i << " after +" << grow;
            rank_ones += want == 1 ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(rank_ones, 1000u);  // Draws landed on the bound's side.
}

std::string HexFloat(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// zeta(n, theta) summed left to right from i = 1, with no cache.
double UncachedZeta(uint64_t n, double theta) {
  double z = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    z += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return z;
}

// Every checkpoint in the built-in zeta table equals, bit for bit, the
// running sum at that n. A libm whose pow rounds differently fails here,
// and the message gives the literal the table needs on it.
TEST(ZetaSumTest, CheckpointTableMatchesARunningSum) {
  constexpr double kTheta = 0.99;
  constexpr uint64_t kStep = uint64_t{1} << 20;
  double z = 0.0;
  uint64_t i = 0;
  for (uint64_t k = 1; k <= 64; ++k) {
    while (i < k * kStep) {
      ++i;
      z += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    const double table = ZetaSum(k * kStep, kTheta);
    EXPECT_EQ(std::bit_cast<uint64_t>(table), std::bit_cast<uint64_t>(z))
        << "checkpoint k = " << k << " holds " << HexFloat(table) << ", the sum is "
        << HexFloat(z);
  }
}

// Off-checkpoint sizes, below the first checkpoint and extended from one,
// give the Zipfian the same zeta as a sum from zero.
TEST(ZetaSumTest, ZipfianZetaMatchesAnUncachedSum) {
  for (const uint64_t n : {uint64_t{100'000}, uint64_t{4'000'000}, (uint64_t{3} << 20) + 12'345}) {
    const ZipfianDistribution dist(n);
    const double uncached = UncachedZeta(n, ZipfianDistribution::kDefaultTheta);
    EXPECT_EQ(std::bit_cast<uint64_t>(dist.zeta_n()), std::bit_cast<uint64_t>(uncached))
        << "n = " << n << ": " << HexFloat(dist.zeta_n()) << " vs " << HexFloat(uncached);
  }
}

TEST(ScrambledZipfianTest, PopularItemsAreScattered) {
  Rng rng(7);
  ScrambledZipfianDistribution dist(100000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) {
    ++counts[dist.Next(rng)];
  }
  // Find the most popular item; it should (with overwhelming probability)
  // not be item 0 once scrambled.
  uint64_t best_key = 0;
  int best = 0;
  for (const auto& [k, c] : counts) {
    if (c > best) {
      best = c;
      best_key = k;
    }
  }
  EXPECT_GT(best, 1000);  // Still skewed.
  EXPECT_NE(best_key, 0u);
}

TEST(LatestDistributionTest, NewestItemsAreHot) {
  Rng rng(8);
  LatestDistribution dist(10000);
  int newest_quarter = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    newest_quarter += dist.Next(rng) >= 7500 ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(newest_quarter) / kN, 0.8);
}

TEST(LatestDistributionTest, GrowShiftsHotSpot) {
  Rng rng(9);
  LatestDistribution dist(1000);
  dist.GrowTo(2000);
  int new_half = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    new_half += dist.Next(rng) >= 1000 ? 1 : 0;
  }
  // After growth the hottest items are the newly inserted ones.
  EXPECT_GT(static_cast<double>(new_half) / kN, 0.8);
}

// Parameterized sweep: every distribution must stay within [0, n) for a
// variety of sizes.
class DistributionRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistributionRangeTest, AllFactoriesStayInRange) {
  const uint64_t n = GetParam();
  Rng rng(11);
  std::vector<std::unique_ptr<KeyDistribution>> dists;
  dists.push_back(std::make_unique<UniformDistribution>(n));
  dists.push_back(MakeZipfian(n));
  dists.push_back(std::make_unique<ScrambledZipfianDistribution>(n));
  dists.push_back(MakeLatest(n));
  for (auto& d : dists) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(d->Next(rng), n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistributionRangeTest,
                         ::testing::Values(1, 2, 3, 10, 100, 12345, 1000000));

}  // namespace
}  // namespace cxl
