// Key-popularity distributions used by the workload generators.
//
// These mirror the generators in the YCSB core package (Gray et al.'s
// incremental Zipfian algorithm, the scrambled variant, and the "latest"
// distribution used by YCSB-D), since the paper drives KeyDB with YCSB.
#ifndef CXL_EXPLORER_SRC_UTIL_DISTRIBUTION_H_
#define CXL_EXPLORER_SRC_UTIL_DISTRIBUTION_H_

#include <cstdint>
#include <memory>

#include "src/util/rng.h"

namespace cxl {

// Interface: draws an item index in [0, item_count()).
class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;

  // Draws the next item index.
  virtual uint64_t Next(Rng& rng) = 0;

  // Number of items currently addressable by the distribution.
  virtual uint64_t item_count() const = 0;

  // Informs the distribution that the item space grew (e.g. an insert
  // happened). Default: ignored.
  virtual void GrowTo(uint64_t new_count) { (void)new_count; }
};

// Uniform over [0, n).
class UniformDistribution final : public KeyDistribution {
 public:
  explicit UniformDistribution(uint64_t n) : n_(n) {}

  uint64_t Next(Rng& rng) override { return rng.NextBounded(n_); }
  uint64_t item_count() const override { return n_; }
  void GrowTo(uint64_t new_count) override {
    if (new_count > n_) {
      n_ = new_count;
    }
  }

 private:
  uint64_t n_;
};

// zeta(n, theta) = sum_{i=1..n} 1/i^theta, bit-identical to summing
// left to right from i = 1. Served from a process-wide cache seeded with
// checkpoints at multiples of 2^20 for theta = 0.99; a miss extends the
// nearest lower cached prefix.
double ZetaSum(uint64_t n, double theta);

// Zipfian over [0, n) with parameter theta (default 0.99, the YCSB default).
// Rank 0 is the most popular item. Uses Gray et al.'s method: O(1) per draw
// after zeta(n) from ZetaSum (a table read for n a multiple of 2^20 up to
// 2^26, the repo's KV datasets), incrementally updated on growth.
class ZipfianDistribution final : public KeyDistribution {
 public:
  static constexpr double kDefaultTheta = 0.99;

  explicit ZipfianDistribution(uint64_t n, double theta = kDefaultTheta);

  uint64_t Next(Rng& rng) override;
  uint64_t item_count() const override { return n_; }
  void GrowTo(uint64_t new_count) override;

  // zeta(n, theta), the normalising constant.
  double zeta_n() const { return zeta_n_; }

 private:
  void Recompute();

  uint64_t n_;
  double theta_;
  // 1 + 0.5^theta: Next returns rank 1 below it. theta_ never changes, so
  // the constructor computes it once (not Recompute(), which every GrowTo
  // runs).
  double rank_one_bound_;
  double zeta_n_ = 0.0;    // zeta(n, theta)
  double zeta_two_ = 0.0;  // zeta(2, theta)
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// Zipfian with ranks scattered over the item space by a hash, so popular
// items are not clustered at low indices (YCSB's ScrambledZipfian).
class ScrambledZipfianDistribution final : public KeyDistribution {
 public:
  explicit ScrambledZipfianDistribution(uint64_t n, double theta = ZipfianDistribution::kDefaultTheta)
      : inner_(n, theta), n_(n) {}

  uint64_t Next(Rng& rng) override { return SplitMix64(inner_.Next(rng)) % n_; }
  uint64_t item_count() const override { return n_; }
  void GrowTo(uint64_t new_count) override {
    inner_.GrowTo(new_count);
    n_ = new_count;
  }

 private:
  ZipfianDistribution inner_;
  uint64_t n_;
};

// YCSB "latest": the most recently inserted items are the most popular.
// Internally a Zipfian over recency: draw r, return (newest - r).
class LatestDistribution final : public KeyDistribution {
 public:
  explicit LatestDistribution(uint64_t n, double theta = ZipfianDistribution::kDefaultTheta)
      : inner_(n, theta), n_(n) {}

  uint64_t Next(Rng& rng) override {
    const uint64_t r = inner_.Next(rng);
    return n_ - 1 - r;
  }
  uint64_t item_count() const override { return n_; }
  void GrowTo(uint64_t new_count) override {
    inner_.GrowTo(new_count);
    n_ = new_count;
  }

 private:
  ZipfianDistribution inner_;
  uint64_t n_;
};

// Factory helpers.
std::unique_ptr<KeyDistribution> MakeZipfian(uint64_t n,
                                             double theta = ZipfianDistribution::kDefaultTheta);
std::unique_ptr<KeyDistribution> MakeLatest(uint64_t n,
                                            double theta = ZipfianDistribution::kDefaultTheta);

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_DISTRIBUTION_H_
