// The benchmark's own arithmetic over the service's public snapshots:
//   * histogram bucket counts recovered from an asl::Histogram (through
//     cdf(), the only public view of its buckets) or from a registry fold;
//   * deltas between two snapshots, so a phase counts only what happened
//     inside it (the warm-up never leaks into the fixed-rate numbers);
//   * quantiles interpolated inside a bucket, so a p50 is a measured value
//     rather than one of a few bucket edges;
//   * completions per second across two phase boundaries;
//   * medians over the measurement windows the host stole least from;
//   * the merged, time-ordered schedule one generator thread replays.
// Header-only so selftest.cpp checks exactly the code kvbench.cpp runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "server/kv_service.h"
#include "stats/histogram.h"
#include "workload/open_loop.h"

namespace perfbench {

using asl::Histogram;
using asl::Nanos;

// Per-bucket observation counts (Histogram::kNumBuckets entries) with the
// total count and, when the source carries it, the sum of the values.
struct Buckets {
  std::vector<std::uint64_t> counts =
      std::vector<std::uint64_t>(Histogram::kNumBuckets, 0);
  std::uint64_t total = 0;
  double sum = 0.0;  // 0 for registry folds, which keep no sum
};

// Recovers a histogram's bucket counts from its cumulative distribution.
// cdf() reports each non-empty bucket as (value in the bucket, seen/total);
// seen is an integer below 2^53, so rounding seen/total * total is exact.
inline Buckets buckets_of(const Histogram& h) {
  Buckets b;
  b.total = h.count();
  b.sum = h.mean() * static_cast<double>(h.count());
  std::uint64_t seen_before = 0;
  for (const Histogram::CdfPoint& p : h.cdf()) {
    const auto seen = static_cast<std::uint64_t>(
        std::llround(p.cumulative * static_cast<double>(b.total)));
    b.counts[Histogram::bucket_index(p.value)] += seen - seen_before;
    seen_before = seen;
  }
  return b;
}

// Bucket counts of a MetricsRegistry::fold_buckets result.
inline Buckets buckets_of_fold(const std::vector<std::uint64_t>& folded) {
  Buckets b;
  for (std::size_t i = 0; i < b.counts.size() && i < folded.size(); ++i) {
    b.counts[i] = folded[i];
    b.total += folded[i];
  }
  return b;
}

// later - earlier, bucket by bucket. Returns false (and leaves `out`
// unspecified) when any bucket went backwards: cumulative snapshots of one
// service never shrink, so that is a broken snapshot, not a small phase.
inline bool subtract(const Buckets& later, const Buckets& earlier,
                     Buckets* out) {
  if (later.total < earlier.total) return false;
  out->total = later.total - earlier.total;
  out->sum = later.sum - earlier.sum;
  for (std::size_t i = 0; i < out->counts.size(); ++i) {
    if (later.counts[i] < earlier.counts[i]) return false;
    out->counts[i] = later.counts[i] - earlier.counts[i];
  }
  return true;
}

// Value at quantile q in [0, 1], interpolated linearly inside the bucket
// that holds rank q * total (values are taken as spread evenly over the
// bucket's integer range). 0 for an empty histogram.
inline double quantile(const Buckets& b, double q) {
  if (b.total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(b.total);
  std::uint64_t before = 0;
  for (std::uint32_t i = 0; i < Histogram::kNumBuckets; ++i) {
    const std::uint64_t n = b.counts[i];
    if (n == 0) continue;
    if (static_cast<double>(before + n) >= rank) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(Histogram::bucket_upper_edge(i - 1)) + 1.0;
      const double width =
          static_cast<double>(Histogram::bucket_upper_edge(i)) + 1.0 - lo;
      const double f = (rank - static_cast<double>(before)) /
                       static_cast<double>(n);
      return lo + std::clamp(f, 0.0, 1.0) * width;
    }
    before += n;
  }
  return static_cast<double>(Histogram::bucket_upper_edge(Histogram::kNumBuckets - 1));
}

// Quantile of an unsorted sample (sorted in place), interpolated between
// the two nearest order statistics. 0 for an empty sample.
inline double sample_quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

// Median of `values` over the windows the host stole least from. A window
// whose CPUs the hypervisor gave to another guest measures the host, not the
// program. Windows with a steal share of at most `clean` are kept when there
// are at least `min_clean` of them; otherwise the windows at or below the
// median steal share are, which is at least half of them. `steal` holds one
// share per value. 0 when empty.
inline double median_of_least_stolen(const std::vector<double>& values,
                                     const std::vector<double>& steal,
                                     double clean, std::size_t min_clean) {
  std::vector<double> s = steal;
  const auto n_clean = static_cast<std::size_t>(std::count_if(
      steal.begin(), steal.end(), [clean](double x) { return x <= clean; }));
  const double cutoff = n_clean >= min_clean ? clean : sample_quantile(s, 0.5);
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size() && i < steal.size(); ++i) {
    if (steal[i] <= cutoff) kept.push_back(values[i]);
  }
  return sample_quantile(kept, 0.5);
}

// Events per second between two cumulative readings taken at t0 and t1.
inline double per_second(std::uint64_t c0, std::uint64_t c1, Nanos t0,
                         Nanos t1) {
  if (t1 <= t0 || c1 < c0) return 0.0;
  return static_cast<double>(c1 - c0) * 1e9 / static_cast<double>(t1 - t0);
}

// What one request class did between two report() snapshots.
struct ClassDelta {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  Buckets latency;     // end-to-end, completions inside the interval
  Buckets queue_wait;  // admission -> service start, same completions
};

// later - earlier for one class; false when a counter went backwards.
inline bool class_delta(const asl::server::ClassReport& earlier,
                        const asl::server::ClassReport& later,
                        ClassDelta* out) {
  if (later.accepted < earlier.accepted || later.rejected < earlier.rejected ||
      later.shed < earlier.shed || later.completed < earlier.completed) {
    return false;
  }
  out->accepted = later.accepted - earlier.accepted;
  out->rejected = later.rejected - earlier.rejected;
  out->shed = later.shed - earlier.shed;
  out->completed = later.completed - earlier.completed;
  return subtract(buckets_of(later.total.overall()),
                  buckets_of(earlier.total.overall()), &out->latency) &&
         subtract(buckets_of(later.queue_wait), buckets_of(earlier.queue_wait),
                  &out->queue_wait);
}

// One scheduled submission of the merged get+put stream. 16 bytes: an
// overload phase replays millions of these from memory.
struct Arrival {
  Nanos at = 0;  // offset from the run's start instant
  std::uint32_t key = 0;
  std::uint16_t class_index = 0;
  bool is_put = false;
};

// Appends every spec's generate_trace(spec, horizon) schedule, shifted by
// `offset`, to `out` as one time-ordered stream for a single generator
// thread (a caller building consecutive segments appends them in order).
// Equal instants keep spec order, then each spec's own order. Keys and
// class indices must fit the packed fields.
inline void merged_schedule(const std::vector<asl::server::LoadSpec>& specs,
                            Nanos horizon, Nanos offset,
                            std::vector<Arrival>* out) {
  const auto first = static_cast<std::ptrdiff_t>(out->size());
  for (const asl::server::LoadSpec& spec : specs) {
    if (spec.keys.keyspace() > UINT32_MAX || spec.class_index > UINT16_MAX) {
      throw std::out_of_range("merged_schedule: key or class does not fit");
    }
    for (const asl::server::TracePoint& p :
         asl::server::generate_trace(spec, horizon)) {
      out->push_back(Arrival{offset + p.at, static_cast<std::uint32_t>(p.key),
                             static_cast<std::uint16_t>(spec.class_index),
                             p.is_put});
    }
  }
  // Each spec's run is already sorted; a stable sort keeps both tie rules.
  std::stable_sort(out->begin() + first, out->end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
}

}  // namespace perfbench
