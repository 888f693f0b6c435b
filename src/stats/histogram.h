// Log-bucketed latency histogram (HDR-histogram style).
//
// Latency recording must be cheap (one increment on the epoch path) and must
// resolve tail percentiles across nine decades (tens of ns lock handoffs up
// to the paper's multi-ms SQLite epochs). We bucket values by octave with
// kSubBuckets linear sub-buckets per octave: relative quantization error is
// bounded by 1/kSubBuckets (~1.6% with 64 sub-buckets), ample for P99
// comparisons.
#pragma once

#include <cstdint>
#include <vector>

namespace asl {

class Histogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 6;  // 64 sub-buckets/octave
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr std::uint32_t kOctaves = 40;  // covers up to ~2^40 ns
  static constexpr std::uint32_t kNumBuckets = kOctaves * kSubBuckets;

  Histogram();

  // The histogram a folded recording describes (obs::MetricsRegistry::
  // fold_histogram): kNumBuckets bucket counts, whose sum is the count, plus
  // the observations' sum, min and max.
  Histogram(std::vector<std::uint64_t> buckets, std::uint64_t sum,
            std::uint64_t min, std::uint64_t max);

  // Record one observation (e.g. latency in ns). Saturates at the top bucket.
  void record(std::uint64_t value);

  // Record `count` observations of the same value.
  void record_n(std::uint64_t value, std::uint64_t count);

  // Value at quantile q in [0,1] (q=0.99 => P99), nearest-rank over the
  // buckets. Returns a representative value of the containing bucket (its
  // upper edge), clamped to the true observed max so quantization never
  // reports a value larger than anything recorded. Edge cases are defined,
  // not bucket-boundary garbage (asserted in stats_test):
  //   * empty histogram  -> 0 for every q (same convention as
  //     ExactSample::value_at_quantile and LatencySplit);
  //   * single sample v  -> exactly v for every q (the containing bucket's
  //     upper edge is >= v, and the max clamp pulls it back to v).
  std::uint64_t value_at_quantile(double q) const;

  // The same nearest-rank walk over a raw bucket-count array (length
  // kNumBuckets, counts summing to `total`), without an observed-max clamp:
  // returns the containing bucket's upper edge, or 0 when total == 0. This
  // is the shared kernel value_at_quantile builds on, exposed so the
  // telemetry sampler (obs/) can take windowed percentiles over per-tick
  // bucket *deltas* — a delta window has no max of its own to clamp to,
  // and the result stays a deterministic integer either way.
  static std::uint64_t quantile_from_bucket_counts(const std::uint64_t* buckets,
                                                   std::uint64_t total,
                                                   double q);

  std::uint64_t p50() const { return value_at_quantile(0.50); }
  std::uint64_t p99() const { return value_at_quantile(0.99); }
  std::uint64_t p999() const { return value_at_quantile(0.999); }

  std::uint64_t count() const { return total_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t min() const { return total_ == 0 ? 0 : min_; }
  double mean() const {
    return total_ == 0 ? 0.0 : static_cast<double>(sum_) / total_;
  }

  // Merge another histogram into this one (per-thread / per-worker
  // recorders are folded into one combined histogram at the end of an
  // experiment). Exact: the merged histogram's buckets, count, sum, min and
  // max are identical to recording both observation streams into a single
  // histogram (asserted against that oracle in stats_test).
  void merge(const Histogram& other);

  void reset();

  // (value, cumulative_probability) pairs for CDF plots (Figures 9c/9f/9i,
  // 10c/10f). Only non-empty buckets are emitted.
  struct CdfPoint {
    std::uint64_t value;
    double cumulative;
  };
  std::vector<CdfPoint> cdf() const;

  // Bucket index for a value; exposed for tests.
  static std::uint32_t bucket_index(std::uint64_t value);
  // Upper edge of bucket i (the value reported for observations in it).
  static std::uint64_t bucket_upper_edge(std::uint32_t index);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~0ULL;
};

}  // namespace asl
