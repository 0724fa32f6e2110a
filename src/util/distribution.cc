#include "src/util/distribution.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

namespace cxl {

namespace {

// zeta(n, theta) = sum_{i=1..n} 1/i^theta, computed incrementally from a
// previous prefix when possible.
double ZetaIncremental(uint64_t from, uint64_t to, double theta, double base) {
  double z = base;
  for (uint64_t i = from + 1; i <= to; ++i) {
    z += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return z;
}

// zeta(k * 2^20, 0.99) for k = 1..64, printed with %a from one running
// left-to-right sum in ZetaIncremental's order (glibc libm pow). Every KV
// dataset in the repo is a whole number of GiB of 1 KiB records, i.e. a
// multiple of 2^20 records, so its zeta is read here instead of summed.
// tests/util/distribution_test.cc re-derives every entry bit for bit.
constexpr double kZetaTheta = 0.99;
constexpr uint64_t kZetaCheckpointStep = uint64_t{1} << 20;
constexpr double kZetaCheckpoints[] = {
    0x1.ee4847517c6bfp+3,  // k = 1
    0x1.03ecc5a85f701p+4,  // k = 2
    0x1.0b71ae96f350fp+4,  // k = 3
    0x1.10cc2b1e30e53p+4,  // k = 4
    0x1.14f5eb34c9176p+4,  // k = 5
    0x1.185e77a1f423bp+4,  // k = 6
    0x1.1b417051b8287p+4,  // k = 7
    0x1.1dc27c807236bp+4,  // k = 8
    0x1.1ff8a42f19314p+4,  // k = 9
    0x1.21f3a64d4154p+4,   // k = 10
    0x1.23bec13a91479p+4,  // k = 11
    0x1.2562446a80146p+4,  // k = 12
    0x1.26e480f726821p+4,  // k = 13
    0x1.284a60effd61cp+4,  // k = 14
    0x1.2997ca6a6f04dp+4,  // k = 15
    0x1.2acfe2967f729p+4,  // k = 16
    0x1.2bf53c7ceefacp+4,  // k = 17
    0x1.2d09fa61ae7f2p+4,  // k = 18
    0x1.2e0fe6207fb98p+4,  // k = 19
    0x1.2f08834ac76fbp+4,  // k = 20
    0x1.2ff51cdaa1b27p+4,  // k = 21
    0x1.30d6cfb6c9cadp+4,  // k = 22
    0x1.31ae92e0b1f25p+4,  // k = 23
    0x1.327d3de56551cp+4,  // k = 24
    0x1.33438dfe31565p+4,  // k = 25
    0x1.34022a302b69bp+4,  // k = 26
    0x1.34b9a6a4c1acp+4,   // k = 27
    0x1.356a8766ba983p+4,  // k = 28
    0x1.361542a45c96fp+4,  // k = 29
    0x1.36ba428fb6023p+4,  // k = 30
    0x1.3759e6f041b08p+4,  // k = 31
    0x1.37f48674e0452p+4,  // k = 32
    0x1.388a6fd1e3d1fp+4,  // k = 33
    0x1.391beab479209p+4,  // k = 34
    0x1.39a93892d6c6dp+4,  // k = 35
    0x1.3a32955f242a7p+4,  // k = 36
    0x1.3ab83821e8873p+4,  // k = 37
    0x1.3b3a537fe9a7ap+4,  // k = 38
    0x1.3bb9162eaf50dp+4,  // k = 39
    0x1.3c34ab5a4c2b4p+4,  // k = 40
    0x1.3cad3afe9b2cp+4,   // k = 41
    0x1.3d22ea35c0c13p+4,  // k = 42
    0x1.3d95db7d73442p+4,  // k = 43
    0x1.3e062ef4504fp+4,   // k = 44
    0x1.3e7402905026cp+4,  // k = 45
    0x1.3edf724f408c7p+4,  // k = 46
    0x1.3f4898620ada3p+4,  // k = 47
    0x1.3faf8d536da42p+4,  // k = 48
    0x1.4014682abb061p+4,  // k = 49
    0x1.40773e8b1505ap+4,  // k = 50
    0x1.40d824cf93d53p+4,  // k = 51
    0x1.41372e24b2406p+4,  // k = 52
    0x1.41946c9f4e6fcp+4,  // k = 53
    0x1.41eff15185d99p+4,  // k = 54
    0x1.4249cc5da7ebfp+4,  // k = 55
    0x1.42a20d07747a4p+4,  // k = 56
    0x1.42f8c1c3d448bp+4,  // k = 57
    0x1.434df84734262p+4,  // k = 58
    0x1.43a1bd92a6a38p+4,  // k = 59
    0x1.43f41dffeb7b5p+4,  // k = 60
    0x1.4445254c793a2p+4,  // k = 61
    0x1.4494dea3a15ebp+4,  // k = 62
    0x1.44e354a7e570cp+4,  // k = 63
    0x1.4530917b8ffb1p+4,  // k = 64
};

uint64_t ThetaBits(double theta) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(theta));
  std::memcpy(&bits, &theta, sizeof(bits));
  return bits;
}

}  // namespace

// Process-wide cache of zeta(n, theta) prefix sums, seeded with the
// checkpoints above. A miss extends the nearest lower cached prefix of the
// same theta by the identical left-to-right summation the from-scratch loop
// would run, so cached and uncached values are bit-identical — which also
// makes the result independent of which sweep thread filled the cache.
// Keys pair the exact bit pattern of theta with n; values are zeta(n, theta).
double ZetaSum(uint64_t n, double theta) {
  static std::mutex mutex;
  static std::map<std::pair<uint64_t, uint64_t>, double> cache = [] {
    std::map<std::pair<uint64_t, uint64_t>, double> seeded;
    uint64_t k = 0;
    for (const double z : kZetaCheckpoints) {
      seeded.emplace(std::make_pair(ThetaBits(kZetaTheta), ++k * kZetaCheckpointStep), z);
    }
    return seeded;
  }();

  const uint64_t theta_bits = ThetaBits(theta);
  std::lock_guard<std::mutex> lock(mutex);
  uint64_t from = 0;
  double base = 0.0;
  auto it = cache.upper_bound({theta_bits, n});
  if (it != cache.begin()) {
    --it;
    if (it->first.first == theta_bits) {
      from = it->first.second;
      base = it->second;
      if (from == n) {
        return base;
      }
    }
  }
  const double z = ZetaIncremental(from, n, theta, base);
  cache.emplace(std::make_pair(theta_bits, n), z);
  return z;
}

ZipfianDistribution::ZipfianDistribution(uint64_t n, double theta)
    : n_(n), theta_(theta), rank_one_bound_(1.0 + std::pow(0.5, theta)) {
  assert(n >= 1);
  assert(theta > 0.0 && theta < 1.0);
  zeta_two_ = ZetaIncremental(0, 2, theta_, 0.0);
  zeta_n_ = ZetaSum(n_, theta_);
  Recompute();
}

void ZipfianDistribution::Recompute() {
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta_two_ / zeta_n_);
}

void ZipfianDistribution::GrowTo(uint64_t new_count) {
  if (new_count <= n_) {
    return;
  }
  zeta_n_ = ZetaIncremental(n_, new_count, theta_, zeta_n_);
  n_ = new_count;
  Recompute();
}

uint64_t ZipfianDistribution::Next(Rng& rng) {
  const double u = rng.NextDouble();
  const double uz = u * zeta_n_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < rank_one_bound_) {
    return 1;
  }
  const auto rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                          std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

std::unique_ptr<KeyDistribution> MakeZipfian(uint64_t n, double theta) {
  return std::make_unique<ZipfianDistribution>(n, theta);
}

std::unique_ptr<KeyDistribution> MakeLatest(uint64_t n, double theta) {
  return std::make_unique<LatestDistribution>(n, theta);
}

}  // namespace cxl
