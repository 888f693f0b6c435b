// KvTelemetry — the service-side telemetry bundle (DESIGN.md §11): one
// time-series log + one span tracer, sampling the service's accounting
// store (KvAccounting, kv_service.h) into the KV service's series schema.
//
// It records nothing itself: workers record into the store, telemetry on or
// off. The *sampler* (a real thread on the real path, virtual-time tick
// events on the twin) fills inputs() with the counters that live outside
// the store (admission, queue depths) and calls fold_tick, which folds the
// store, computes windowed p99s from per-tick bucket deltas, and appends one
// point per series. All fold scratch is preallocated, so a tick never
// allocates. Traced requests record their phase spans into tracer().
//
// Series schema (canonical order, identical on the real path and the twin
// so the twin's virtual-time CSV is goldenable against this layout):
//   per class c:  class.<name>.accepted   (cumulative)
//                 class.<name>.completed  (cumulative)
//                 class.<name>.shed       (cumulative)
//                 class.<name>.p99_ns     (end-to-end p99 of THIS tick's
//                                          completions; 0 on an idle tick)
//   per shard s:  shard.<s>.depth         (instantaneous queue depth)
//   then:         lock.acquires           (cumulative, both routes)
//                 lock.wait_p99_ns        (windowed, shard-lock wait)
//                 lock.hold_p99_ns        (windowed, shard-lock hold)
//                 routes.lockfree_gets    (cumulative)
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "obs/timeseries_log.h"
#include "platform/time.h"

namespace asl::server {

struct KvServiceConfig;
class KvAccounting;

// One sampler fold's view of the counters that live outside the
// accounting store, preallocated by KvTelemetry and filled by the service
// right before each fold_tick.
struct TelemetryTickInputs {
  std::vector<std::uint64_t> class_accepted;  // [num_classes]
  std::vector<std::uint64_t> class_shed;      // [num_classes]
  std::vector<std::uint64_t> shard_depth;     // [num_shards]
};

class KvTelemetry {
 public:
  // Builds the series and span rings for `config` (post-clamping, so
  // classes is non-empty) over `store`, which must outlive this object.
  // Every allocation the telemetry layer will ever make happens here.
  KvTelemetry(const KvServiceConfig& config, const KvAccounting& store);
  KvTelemetry(const KvTelemetry&) = delete;
  KvTelemetry& operator=(const KvTelemetry&) = delete;

  // Appends one point to every series at time `t` (ns on the telemetry time
  // axis — wall-clock-since-start() on the real path, virtual time on the
  // twin), reading inputs(). Single-threaded by contract: the real Sampler
  // serializes its ticks, the twin is single-threaded by construction.
  TelemetryTickInputs& inputs() { return in_; }
  void fold_tick(Nanos t);

  std::uint64_t ticks() const { return ticks_; }
  const obs::TimeSeriesLog& log() const { return log_; }
  const obs::SpanTracer& tracer() const { return tracer_; }
  obs::SpanTracer& tracer() { return tracer_; }
  // The accounting store's registry (`lock.wait_ns`, `lock.hold_ns`, ...).
  const obs::MetricsRegistry& registry() const;

 private:
  // One tick's worth of a histogram metric: fold the store's buckets, diff
  // against the previous tick's fold, and return the delta's p99. The
  // cumulative observation count lands in *count when non-null.
  std::uint64_t windowed_p99(std::size_t hist_index, obs::MetricId id,
                             std::uint64_t* count = nullptr);

  const KvAccounting& store_;
  TelemetryTickInputs in_;
  obs::TimeSeriesLog log_;
  obs::SpanTracer tracer_;

  // Series ids, in schema order.
  struct ClassSeries {
    obs::TimeSeriesLog::SeriesId accepted, completed, shed, p99;
  };
  std::vector<ClassSeries> s_class_;
  std::vector<obs::TimeSeriesLog::SeriesId> s_shard_depth_;
  obs::TimeSeriesLog::SeriesId s_lock_acquires_ = 0;
  obs::TimeSeriesLog::SeriesId s_lock_wait_p99_ = 0;
  obs::TimeSeriesLog::SeriesId s_lock_hold_p99_ = 0;
  obs::TimeSeriesLog::SeriesId s_lockfree_gets_ = 0;

  // Fold scratch, preallocated: cur_/delta_ are one histogram's buckets,
  // prev_ snapshots every histogram metric's previous fold (class latencies
  // first, then lock wait, then lock hold — indexed by hist_index).
  std::vector<std::uint64_t> cur_;
  std::vector<std::uint64_t> delta_;
  std::vector<std::uint64_t> prev_;
  std::uint64_t ticks_ = 0;
};

}  // namespace asl::server
