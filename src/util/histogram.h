// Log-bucketed latency histogram (HdrHistogram-style) for percentiles and
// CDF export, plus a small exact-running-statistics accumulator.
#ifndef CXL_EXPLORER_SRC_UTIL_HISTOGRAM_H_
#define CXL_EXPLORER_SRC_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <limits>
#include <string>
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

  // Records `count` samples in array order. Equivalent to calling Record on
  // each element left to right — same buckets AND the same sum (double
  // accumulation is order-sensitive), so a batched producer snapshots
  // bit-identically to an unbatched one. The epoch paths buffer latencies
  // and flush once per epoch through this.
  void RecordBatch(const double* values, size_t count);

  // Records `count` samples in array order into this histogram, and sample i
  // also into `second` if `in_second[i]` is nonzero, else into `first`.
  // Bit-identical to RecordBatch of all samples here plus RecordBatch of
  // each part's samples, in array order, into that part (same sums,
  // extremes and buckets; every cache left holding a (value, bucket) pair
  // of the last sample it took), but each sample's bucket is looked up
  // once, through this histogram's cache. All three histograms must share
  // one layout (min, max, buckets per decade).
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

  // Empties the histogram.
  void Reset();

  // One (value, cumulative_fraction) point per non-empty bucket, suitable for
  // plotting a CDF like Fig. 5(c) / Fig. 8(a).
  struct CdfPoint {
    double value;
    double cumulative;
  };
  std::vector<CdfPoint> Cdf() const;

  // Formats "p50=... p99=... p999=... max=..." with the given unit suffix.
  std::string Summary(const std::string& unit = "ns") const;

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
  // Reset() clears it so a reset histogram is indistinguishable from a
  // freshly constructed one.
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

// Welford running mean/variance for quick aggregate statistics.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) {
      min_ = x;
    }
    if (n_ == 1 || x > max_) {
      max_ = x;
    }
    sum_ += x;
  }

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double sum() const { return sum_; }
  double variance() const { return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1); }
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_HISTOGRAM_H_
