#include "server/telemetry.h"

#include "server/kv_service.h"
#include "stats/histogram.h"

namespace asl::server {

KvTelemetry::KvTelemetry(const KvServiceConfig& config,
                         const KvAccounting& store)
    : store_(store),
      tracer_(store.registry().num_slots(),
              config.telemetry.span_ring_capacity,
              config.telemetry.span_sample_every) {
  const std::size_t num_classes = config.classes.size();
  const std::size_t num_shards = config.num_shards;
  const std::size_t cap = config.telemetry.max_ticks;

  s_class_.reserve(num_classes);
  s_shard_depth_.reserve(num_shards);
  in_.class_accepted.resize(num_classes);
  in_.class_shed.resize(num_classes);
  in_.shard_depth.resize(num_shards);

  for (const RequestClass& c : config.classes) {
    // A braced list evaluates in order, so the series keep schema order.
    const std::string prefix = "class." + c.name;
    s_class_.push_back({log_.add_series(prefix + ".accepted", cap),
                        log_.add_series(prefix + ".completed", cap),
                        log_.add_series(prefix + ".shed", cap),
                        log_.add_series(prefix + ".p99_ns", cap)});
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    s_shard_depth_.push_back(
        log_.add_series("shard." + std::to_string(s) + ".depth", cap));
  }
  s_lock_acquires_ = log_.add_series("lock.acquires", cap);
  s_lock_wait_p99_ = log_.add_series("lock.wait_p99_ns", cap);
  s_lock_hold_p99_ = log_.add_series("lock.hold_p99_ns", cap);
  s_lockfree_gets_ = log_.add_series("routes.lockfree_gets", cap);

  const std::size_t num_hists = num_classes + 2;
  cur_.resize(Histogram::kNumBuckets);
  delta_.resize(Histogram::kNumBuckets);
  prev_.assign(num_hists * Histogram::kNumBuckets, 0);
}

const obs::MetricsRegistry& KvTelemetry::registry() const {
  return store_.registry();
}

std::uint64_t KvTelemetry::windowed_p99(std::size_t hist_index,
                                        obs::MetricId id,
                                        std::uint64_t* count) {
  const std::uint64_t cumulative =
      store_.registry().fold_buckets(id, cur_.data());
  if (count != nullptr) *count = cumulative;
  std::uint64_t* prev = prev_.data() + hist_index * Histogram::kNumBuckets;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    // Counters are monotone, so cur >= prev bucket-wise; the delta is
    // exactly this tick's observations.
    delta_[b] = cur_[b] - prev[b];
    total += delta_[b];
    prev[b] = cur_[b];
  }
  return Histogram::quantile_from_bucket_counts(delta_.data(), total, 0.99);
}

void KvTelemetry::fold_tick(Nanos t) {
  const std::uint64_t ts = static_cast<std::uint64_t>(t);
  const std::size_t num_classes = s_class_.size();
  for (std::size_t c = 0; c < num_classes; ++c) {
    // A class's completions are its latency histogram's count.
    std::uint64_t completed = 0;
    const std::uint64_t p99 = windowed_p99(
        c, store_.latency_metric(static_cast<std::uint32_t>(c)), &completed);
    log_.append(s_class_[c].accepted, ts, in_.class_accepted[c]);
    log_.append(s_class_[c].completed, ts, completed);
    log_.append(s_class_[c].shed, ts, in_.class_shed[c]);
    log_.append(s_class_[c].p99, ts, p99);
  }
  for (std::size_t s = 0; s < s_shard_depth_.size(); ++s) {
    log_.append(s_shard_depth_[s], ts, in_.shard_depth[s]);
  }
  const LockRouteStats routes = store_.routes();
  log_.append(s_lock_acquires_, ts,
              routes.get_route_acquires + routes.put_route_acquires);
  log_.append(s_lock_wait_p99_, ts,
              windowed_p99(num_classes, store_.lock_wait_metric()));
  log_.append(s_lock_hold_p99_, ts,
              windowed_p99(num_classes + 1, store_.lock_hold_metric()));
  log_.append(s_lockfree_gets_, ts, routes.lockfree_gets);
  ticks_ += 1;
}

}  // namespace asl::server
