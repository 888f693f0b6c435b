#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace asl {

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

Histogram::Histogram(std::vector<std::uint64_t> buckets, std::uint64_t sum,
                     std::uint64_t min, std::uint64_t max)
    : buckets_(std::move(buckets)), sum_(sum), max_(max), min_(min) {
  buckets_.resize(kNumBuckets, 0);
  for (std::uint64_t n : buckets_) total_ += n;
}

std::uint32_t Histogram::bucket_index(std::uint64_t value) {
  // Values below kSubBuckets map linearly (octave 0 is exact).
  if (value < kSubBuckets) {
    return static_cast<std::uint32_t>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const std::uint32_t octave = static_cast<std::uint32_t>(msb) - kSubBucketBits;
  const std::uint32_t sub = static_cast<std::uint32_t>(
      (value >> (msb - static_cast<int>(kSubBucketBits))) - kSubBuckets);
  const std::uint32_t index = (octave + 1) * kSubBuckets + sub;
  return std::min(index, kNumBuckets - 1);
}

std::uint64_t Histogram::bucket_upper_edge(std::uint32_t index) {
  if (index < kSubBuckets) {
    return index;
  }
  const std::uint32_t octave = index / kSubBuckets - 1;
  const std::uint32_t sub = index % kSubBuckets;
  // Reconstruct: value had msb = octave + kSubBucketBits, sub-bucket `sub`.
  const std::uint64_t base = 1ULL << (octave + kSubBucketBits);
  const std::uint64_t width = base >> kSubBucketBits;
  return base + static_cast<std::uint64_t>(sub + 1) * width - 1;
}

void Histogram::record(std::uint64_t value) { record_n(value, 1); }

void Histogram::record_n(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  buckets_[bucket_index(value)] += count;
  total_ += count;
  sum_ += value * count;
  max_ = std::max(max_, value);
  min_ = std::min(min_, value);
}

std::uint64_t Histogram::quantile_from_bucket_counts(
    const std::uint64_t* buckets, std::uint64_t total, double q) {
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based (nearest rank).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5));
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return bucket_upper_edge(i);
    }
  }
  // Unreachable when `total` really is the bucket sum; returning the top
  // edge keeps a lying caller monotone instead of undefined.
  return bucket_upper_edge(kNumBuckets - 1);
}

std::uint64_t Histogram::value_at_quantile(double q) const {
  if (total_ == 0) return 0;
  // The shared bucket walk, then the observed-max clamp: a bucket's upper
  // edge can exceed everything recorded into it (quantization), and with a
  // single sample the clamp is what makes every quantile exactly that
  // sample (see the header's edge-case contract).
  return std::min<std::uint64_t>(
      quantile_from_bucket_counts(buckets_.data(), total_, q), max_);
}

void Histogram::merge(const Histogram& other) {
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  min_ = std::min(min_, other.min_);
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  total_ = 0;
  sum_ = 0;
  max_ = 0;
  min_ = ~0ULL;
}

std::vector<Histogram::CdfPoint> Histogram::cdf() const {
  std::vector<CdfPoint> points;
  if (total_ == 0) return points;
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    points.push_back({std::min<std::uint64_t>(bucket_upper_edge(i), max_),
                      static_cast<double>(seen) / static_cast<double>(total_)});
  }
  return points;
}

}  // namespace asl
