// Log-bucketed latency histogram (HdrHistogram-style) for percentiles.
#ifndef CXL_EXPLORER_SRC_UTIL_HISTOGRAM_H_
#define CXL_EXPLORER_SRC_UTIL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace cxl {

// Records double samples (e.g. latency in ns) into geometric buckets covering
// [min_value, max_value] with a configurable number of buckets per decade.
// Percentile error is bounded by the bucket width (default ~2.4% with 96
// buckets/decade).
class Histogram {
 public:
  // Covers [1, 1e10) ns by default (sub-ns to ~10 s), 96 buckets per decade.
  explicit Histogram(double min_value = 1.0, double max_value = 1e10,
                     int buckets_per_decade = 96);

  // Records one sample; values are clamped into the covered range.
  void Record(double value);

  // Records `count` identical samples.
  void RecordMany(double value, uint64_t count);

  // Records `count` samples in array order into this histogram, and sample i
  // also into `second` if `in_second[i]` is nonzero, else into `first`.
  // Bit-identical to calling Record on every sample here plus on each
  // part's samples, in array order, in that part (same sums, extremes and
  // buckets, as double accumulation is order-sensitive; every cache left
  // holding a (value, bucket) pair of the last sample it took), but each
  // sample's bucket is looked up once, through this histogram's cache. All
  // three histograms must share one layout (min, max, buckets per decade).
  // The KV server buffers an epoch's latencies and flushes them here.
  void RecordBatchSplit(const double* values, const uint8_t* in_second, size_t count,
                        Histogram& first, Histogram& second);

  // Merges another histogram with identical bucket layout.
  void Merge(const Histogram& other);

  // Returns the value at quantile q in [0, 1]. Returns 0 for an empty
  // histogram. q=0 returns ~min recorded, q=1 returns ~max recorded.
  double ValueAtQuantile(double q) const;

  double p50() const { return ValueAtQuantile(0.50); }
  double p90() const { return ValueAtQuantile(0.90); }
  double p95() const { return ValueAtQuantile(0.95); }
  double p99() const { return ValueAtQuantile(0.99); }
  double p999() const { return ValueAtQuantile(0.999); }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_seen_; }
  double max() const { return count_ == 0 ? 0.0 : max_seen_; }

 private:
  int BucketIndex(double value) const;
  // BucketIndex through the last-value cache.
  int CachedBucketIndex(double value);
  // Adds `n` samples of `value` to `bucket`; the cache is the caller's.
  void AddToBucket(double value, int bucket, uint64_t n);
  bool SameLayout(const Histogram& other) const;
  double BucketUpperBound(int index) const;

  double min_value_;
  double max_value_;
  double log_min_;
  double inv_log_step_;  // buckets per log10 unit.
  double log_step_;
  // Last (value -> bucket) mapping. Identical consecutive latencies are
  // common in the simulator (quantized service times, RecordMany batches),
  // and the cache turns the log10() in BucketIndex into a compare.
  double last_value_ = 0.0;
  int last_bucket_ = -1;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  // +/-inf sentinels while empty, so Record/Merge need no emptiness checks;
  // min()/max() translate them back to 0.0 for callers.
  double min_seen_ = std::numeric_limits<double>::infinity();
  double max_seen_ = -std::numeric_limits<double>::infinity();
};

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_HISTOGRAM_H_
