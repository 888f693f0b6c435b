#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace asl::obs {

MetricsRegistry::MetricsRegistry(std::uint32_t num_slots)
    : num_slots_(num_slots < 1 ? 1 : num_slots) {}

MetricId MetricsRegistry::register_metric(std::string name, MetricKind kind) {
  if (frozen_) {
    // Registration after freeze() would need a reallocation under live
    // writers — a structural bug, not a recoverable condition.
    std::fprintf(stderr,
                 "MetricsRegistry: register('%s') after freeze()\n",
                 name.c_str());
    std::abort();
  }
  Metric m;
  m.name = std::move(name);
  m.base = kind == MetricKind::kHistogram ? hist_count_++ : scalar_count_++;
  metrics_.push_back(std::move(m));
  return static_cast<MetricId>(metrics_.size() - 1);
}

MetricId MetricsRegistry::counter(std::string name) {
  return register_metric(std::move(name), MetricKind::kCounter);
}

MetricId MetricsRegistry::gauge(std::string name) {
  return register_metric(std::move(name), MetricKind::kGauge);
}

MetricId MetricsRegistry::histogram(std::string name) {
  return register_metric(std::move(name), MetricKind::kHistogram);
}

void MetricsRegistry::freeze() {
  if (frozen_) return;
  frozen_ = true;
  // The one-and-only allocation: every cell this registry will ever touch,
  // in its empty state (zeros; histogram mins at ~0). vector(n) constructs
  // elements in place, so the non-movable atomic cells never relocate.
  scalars_ = std::vector<PaddedCell>(scalar_count_ * num_slots_);
  hist_stats_ = std::vector<HistStats>(hist_count_ * num_slots_);
  hist_ = std::vector<std::atomic<std::uint64_t>>(
      hist_count_ * num_slots_ * Histogram::kNumBuckets);
}

std::uint64_t MetricsRegistry::fold(MetricId id) const {
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < num_slots_; ++s) {
    sum += scalars_[cell(id, s)].value.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t MetricsRegistry::fold_buckets(MetricId id, std::uint64_t* out,
                                            std::uint32_t first,
                                            std::uint32_t last) const {
  std::fill(out, out + Histogram::kNumBuckets, 0);
  std::uint64_t total = 0;
  for (std::uint32_t s = first; s < std::min(last, num_slots_); ++s) {
    const std::atomic<std::uint64_t>* block =
        hist_.data() + cell(id, s) * Histogram::kNumBuckets;
    for (std::uint32_t b = 0; b < Histogram::kNumBuckets; ++b) {
      // Acquire pairs with observe()'s release (see fold_histogram).
      const std::uint64_t n = block[b].load(std::memory_order_acquire);
      out[b] += n;
      total += n;
    }
  }
  return total;
}

Histogram MetricsRegistry::fold_histogram(MetricId id, std::uint32_t first,
                                          std::uint32_t last) const {
  std::vector<std::uint64_t> buckets(Histogram::kNumBuckets);
  // Buckets before stats: every value counted here is already in the
  // sum/min/max read next, so a racing fold's max bounds its buckets.
  fold_buckets(id, buckets.data(), first, last);
  std::uint64_t sum = 0, min = ~0ULL, max = 0;
  for (std::uint32_t s = first; s < std::min(last, num_slots_); ++s) {
    const HistStats& st = hist_stats_[cell(id, s)];
    sum += st.sum.load(std::memory_order_relaxed);
    min = std::min(min, st.min.load(std::memory_order_relaxed));
    max = std::max(max, st.max.load(std::memory_order_relaxed));
  }
  return Histogram(std::move(buckets), sum, min, max);
}

}  // namespace asl::obs
