// Lock-free metrics registry — the storage of the KV service's one
// accounting store (DESIGN.md §4, §11).
//
// Metrics are *named at registration, indexed at recording*: a service
// registers counters, gauges and log-bucketed histograms while it is built,
// calls freeze() once to lay the storage out, and from then on every
// recording is a relaxed atomic load and store into a preallocated, cache-
// line-padded per-slot cell — wait-free and allocation-free, which is what
// lets the kv_alloc_audit zero hold (DESIGN.md §9). A "slot" is a writer
// identity (a worker thread on the real path, a core type on the single-
// threaded twin) with one writer at a time, so recording needs no
// read-modify-write and never contends or false-shares.
//
// Reading is a fold over the slots. A fold racing the writers sees each
// cell at some recent value: counters can only be undercounted by an
// in-flight recording, never corrupted, repeated folds from one thread are
// monotone, and a histogram fold never counts a value its max misses
// (observe() publishes the bucket count last, with release).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/cacheline.h"
#include "stats/histogram.h"

namespace asl::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

// Dense handle returned at registration; recording and folding are O(1)
// array indexing off it, never a name lookup.
using MetricId = std::uint32_t;

class MetricsRegistry {
 public:
  // `num_slots` is the writer population (clamped to >= 1): recording slot
  // s of any metric is private to writer s.
  explicit MetricsRegistry(std::uint32_t num_slots);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration (before freeze() only): returns the metric's id. Counters
  // accumulate via add(), gauges overwrite via set(), histograms bucket
  // observations via observe() into Histogram's log-bucketed layout and
  // keep their sum, min and max.
  MetricId counter(std::string name);
  MetricId gauge(std::string name);
  MetricId histogram(std::string name);

  // Lays out the storage (the only allocation this class ever performs).
  // Registration after freeze() or recording before it is a caller bug.
  void freeze();

  // --- recording: wait-free, allocation-free, relaxed atomics ------------
  void add(MetricId id, std::uint32_t slot, std::uint64_t delta) {
    bump(scalars_[cell(id, slot)].value, delta, std::memory_order_relaxed);
  }
  void set(MetricId id, std::uint32_t slot, std::uint64_t value) {
    scalars_[cell(id, slot)].value.store(value, std::memory_order_relaxed);
  }
  void observe(MetricId id, std::uint32_t slot, std::uint64_t value) {
    const std::size_t c = cell(id, slot);
    HistStats& st = hist_stats_[c];
    bump(st.sum, value, std::memory_order_relaxed);
    if (value < st.min.load(std::memory_order_relaxed)) {
      st.min.store(value, std::memory_order_relaxed);
    }
    if (value > st.max.load(std::memory_order_relaxed)) {
      st.max.store(value, std::memory_order_relaxed);
    }
    bump(hist_[c * Histogram::kNumBuckets + Histogram::bucket_index(value)], 1,
         std::memory_order_release);
  }

  // --- folding (reader side) ---------------------------------------------
  // Sum of a counter/gauge over every slot.
  std::uint64_t fold(MetricId id) const;
  // Per-bucket sums of a histogram over slots [first, last) into `out`
  // (Histogram::kNumBuckets entries, overwritten); returns their total.
  // Allocation-free: the sampler's fold.
  std::uint64_t fold_buckets(MetricId id, std::uint64_t* out,
                             std::uint32_t first = 0,
                             std::uint32_t last = ~0u) const;
  // The same slots as one Histogram, equal in every observable to the one
  // a single recorder of their observations would have built. Allocates.
  Histogram fold_histogram(MetricId id, std::uint32_t first = 0,
                           std::uint32_t last = ~0u) const;

  std::uint32_t num_slots() const { return num_slots_; }
  std::size_t size() const { return metrics_.size(); }
  const std::string& name(MetricId id) const { return metrics_[id].name; }

 private:
  // One padded cell per (scalar metric, slot): two writers' hot counters
  // never share a line, and neither does a reader's fold cursor.
  struct alignas(kCacheLine) PaddedCell {
    std::atomic<std::uint64_t> value{0};
  };
  // Per (histogram metric, slot), on the writer's own line.
  struct alignas(kCacheLine) HistStats {
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~0ULL};  // Histogram's empty state
    std::atomic<std::uint64_t> max{0};
  };

  struct Metric {
    std::string name;
    // Dense index among metrics of the same storage family (scalar vs
    // histogram); cell() turns it into an array offset.
    std::size_t base = 0;
  };

  // The slot's single writer increments with a load and a store.
  static void bump(std::atomic<std::uint64_t>& word, std::uint64_t delta,
                   std::memory_order order) {
    word.store(word.load(std::memory_order_relaxed) + delta, order);
  }

  // Index of (metric, slot) within its storage family. A histogram cell's
  // bucket block is kNumBuckets * 8 bytes (way past a line), so per-slot
  // padding of the buckets is structural — no PaddedCell needed there.
  std::size_t cell(MetricId id, std::uint32_t slot) const {
    return metrics_[id].base * num_slots_ + slot;
  }

  MetricId register_metric(std::string name, MetricKind kind);

  std::uint32_t num_slots_;
  bool frozen_ = false;
  std::vector<Metric> metrics_;
  std::size_t scalar_count_ = 0;  // scalar metrics registered so far
  std::size_t hist_count_ = 0;    // histogram metrics registered so far
  std::vector<PaddedCell> scalars_;              // [scalar metric x slot]
  std::vector<HistStats> hist_stats_;            // [hist metric x slot]
  std::vector<std::atomic<std::uint64_t>> hist_; // [hist metric x slot x bucket]
};

}  // namespace asl::obs
