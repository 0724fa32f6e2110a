#include "src/util/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cxl {

Histogram::Histogram(double min_value, double max_value, int buckets_per_decade)
    : min_value_(min_value), max_value_(max_value) {
  assert(min_value > 0.0 && max_value > min_value && buckets_per_decade > 0);
  log_min_ = std::log10(min_value_);
  const double decades = std::log10(max_value_) - log_min_;
  const int n_buckets = static_cast<int>(std::ceil(decades * buckets_per_decade)) + 1;
  log_step_ = 1.0 / buckets_per_decade;
  inv_log_step_ = static_cast<double>(buckets_per_decade);
  buckets_.assign(static_cast<size_t>(n_buckets), 0);
}

int Histogram::BucketIndex(double value) const {
  if (value <= min_value_) {
    return 0;
  }
  if (value >= max_value_) {
    return static_cast<int>(buckets_.size()) - 1;
  }
  const int idx = static_cast<int>((std::log10(value) - log_min_) * inv_log_step_);
  return std::clamp(idx, 0, static_cast<int>(buckets_.size()) - 1);
}

double Histogram::BucketUpperBound(int index) const {
  return std::pow(10.0, log_min_ + (index + 1) * log_step_);
}

void Histogram::Record(double value) { RecordMany(value, 1); }

void Histogram::RecordBatchSplit(const double* values, const uint8_t* in_second, size_t count,
                                 Histogram& first, Histogram& second) {
  assert(SameLayout(first) && SameLayout(second));
  for (size_t i = 0; i < count; ++i) {
    const double value = values[i];
    const int bucket = CachedBucketIndex(value);
    AddToBucket(value, bucket, 1);
    // The bucket is a function of the value and the shared layout, so the
    // part caches the pair its own lookup would have.
    Histogram& part = in_second[i] != 0 ? second : first;
    part.last_value_ = value;
    part.last_bucket_ = bucket;
    part.AddToBucket(value, bucket, 1);
  }
}

void Histogram::RecordMany(double value, uint64_t n) {
  if (n == 0) {
    return;
  }
  AddToBucket(value, CachedBucketIndex(value), n);
}

int Histogram::CachedBucketIndex(double value) {
  if (last_bucket_ < 0 || value != last_value_) {
    last_bucket_ = BucketIndex(value);
    last_value_ = value;
  }
  return last_bucket_;
}

void Histogram::AddToBucket(double value, int bucket, uint64_t n) {
  buckets_[static_cast<size_t>(bucket)] += n;
  min_seen_ = std::min(min_seen_, value);
  max_seen_ = std::max(max_seen_, value);
  count_ += n;
  sum_ += value * static_cast<double>(n);
}

bool Histogram::SameLayout(const Histogram& other) const {
  return min_value_ == other.min_value_ && max_value_ == other.max_value_ &&
         inv_log_step_ == other.inv_log_step_;
}

void Histogram::Merge(const Histogram& other) {
  assert(buckets_.size() == other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  // The +/-inf sentinels of an empty side are absorbed by min/max.
  min_seen_ = std::min(min_seen_, other.min_seen_);
  max_seen_ = std::max(max_seen_, other.max_seen_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum >= target && buckets_[i] > 0) {
      // Report the bucket's geometric midpoint, clamped to observed extremes.
      const double hi = BucketUpperBound(static_cast<int>(i));
      const double lo = hi * std::pow(10.0, -log_step_);
      return std::clamp(std::sqrt(lo * hi), min_seen_, max_seen_);
    }
  }
  return max_seen_;
}

}  // namespace cxl
