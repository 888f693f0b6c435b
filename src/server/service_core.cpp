#include "server/service_core.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "server/telemetry.h"
#include "workload/trace.h"

namespace asl::server {

KvServiceConfig clamped_config(KvServiceConfig config) {
  if (config.num_shards < 1) config.num_shards = 1;
  if (config.queue_capacity < 1) config.queue_capacity = 1;
  if (config.workers_per_shard < 1) config.workers_per_shard = 1;
  if (config.batch_k < 1) config.batch_k = 1;
  if (config.batch_k > kMaxBatch) {
    config.batch_k = static_cast<std::uint32_t>(kMaxBatch);
  }
  if (config.classes.empty()) {
    config.classes.push_back(RequestClass{"kv-default", 0});
  }
  return config;
}

std::uint32_t big_worker_count(const KvServiceConfig& config) {
  const std::uint32_t n = config.num_shards * config.workers_per_shard;
  const std::uint32_t big =
      config.big_workers == ~0u ? (n + 1) / 2 : config.big_workers;
  return std::min(big, n);
}

KvAccounting::KvAccounting(const std::vector<RequestClass>& classes,
                           std::uint32_t num_slots, std::uint32_t big_slots)
    : registry_(num_slots), big_slots_(big_slots) {
  for (const RequestClass& spec : classes) {
    const std::string prefix = "class." + spec.name;
    classes_.push_back({spec, registry_.histogram(prefix + ".latency_ns"),
                        registry_.histogram(prefix + ".queue_wait_ns"),
                        registry_.counter(prefix + ".slo_met")});
  }
  get_route_ = registry_.counter("routes.get_route_acquires");
  put_route_ = registry_.counter("routes.put_route_acquires");
  cs_gets_ = registry_.counter("routes.cs_gets");
  lockfree_gets_ = registry_.counter("routes.lockfree_gets");
  lock_wait_ = registry_.histogram("lock.wait_ns");
  lock_hold_ = registry_.histogram("lock.hold_ns");
  registry_.freeze();
}

ClassReport KvAccounting::fold_class(std::uint32_t c,
                                     const AdmissionCounts& admitted) const {
  const ClassMetrics& m = classes_[c];
  ClassReport r;
  r.name = m.spec.name;
  r.slo_ns = m.spec.slo_ns;
  r.accepted = admitted.accepted;
  r.rejected = admitted.rejected;
  // A racing snapshot may tear between two counters; the clamps keep the
  // contracts unconditional (class_meets_slo subtracts shed on unsigned
  // values). slo_met is read before the latency fold that bounds it.
  r.shed = std::min(admitted.shed, admitted.rejected);
  const std::uint64_t slo_met = registry_.fold(m.slo_met);
  r.total = LatencySplit(registry_.fold_histogram(m.latency, 0, big_slots_),
                         registry_.fold_histogram(m.latency, big_slots_));
  r.queue_wait = registry_.fold_histogram(m.queue_wait);
  r.completed = r.total.overall().count();
  r.slo_met = std::min(slo_met, r.completed);
  return r;
}

db::CostProfile resolved_cost_profile(const KvServiceConfig& config) {
  // The engine name is validated even when an explicit profile overrides
  // the registry default: the twin resolves costs without ever
  // constructing an engine, and a typo'd name must abort there too, not
  // silently label every table with a nonexistent engine.
  const db::CostProfile registry_default =
      db::default_cost_profile(config.engine);
  if (registry_default.empty()) {
    std::fprintf(stderr, "KvService: %s\n",
                 db::kv_engine_error(config.engine).c_str());
    std::abort();
  }
  const db::CostProfile profile =
      config.cost.empty() ? registry_default : config.cost;
  return profile.scaled(config.cost_scale);
}

ServiceCore::ServiceCore(KvServiceConfig config, Slots slots)
    : config_(clamped_config(std::move(config))),
      cost_(resolved_cost_profile(config_)),
      accounting_(config_.classes,
                  slots == Slots::kPerWorker
                      ? config_.num_shards * config_.workers_per_shard
                      : 2,
                  slots == Slots::kPerWorker ? big_worker_count(config_) : 1) {
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    queues_.push_back(
        std::make_unique<BoundedQueue<Request>>(config_.queue_capacity));
  }
  // Each class's shed depth and controller seed, the latter proportional to
  // the SLO by the same rule the simulator configs use.
  for (const RequestClass& spec : config_.classes) {
    auto cls = std::make_unique<ClassState>();
    cls->spec = spec;
    cls->depth_limit = shed_threshold(spec.admission, config_.queue_capacity);
    if (spec.slo_ns > 0) seed_config_for_slo(cls->controller, spec.slo_ns);
    classes_.push_back(std::move(cls));
  }
  // Worker w serves shard w % num_shards; the first big_worker_count
  // workers are big, the rest little (m1_layout order).
  const std::uint32_t n = config_.num_shards * config_.workers_per_shard;
  const std::uint32_t num_big = big_worker_count(config_);
  for (std::uint32_t w = 0; w < n; ++w) {
    const CoreType type = w < num_big ? CoreType::kBig : CoreType::kLittle;
    const std::uint32_t slot =
        slots == Slots::kPerWorker ? w : (type == CoreType::kBig ? 0 : 1);
    workers_.push_back(WorkerSpec{w, w % config_.num_shards, slot, type});
  }
  // Built and frozen here, like the store, so no sampler tick allocates.
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<KvTelemetry>(*this);
  }
}

ServiceCore::~ServiceCore() = default;

void ServiceCore::close() {
  for (auto& queue : queues_) queue->close();
}

TraceDecision ServiceCore::admit(const Request& req, std::uint32_t shard) {
  ClassState& cls = *classes_[req.class_index];
  // The class's depth limit turns the push into the shed decision:
  // protected classes carry limit == capacity (plain bounded-queue
  // admission), sheddable classes bounce early at their watermark.
  const PushResult pushed =
      queues_[shard]->try_push_below(req, cls.depth_limit);
  const TraceDecision decision = pushed == PushResult::kOk
                                     ? TraceDecision::kAdmit
                                     : pushed == PushResult::kShed
                                           ? TraceDecision::kShed
                                           : TraceDecision::kReject;
  if (TraceRecorder* rec = recorder_.load(std::memory_order_relaxed)) {
    rec->on_arrival(req.enqueue_ns, req.class_index, req.op == OpType::kPut,
                    req.key, decision, shard);
  }
  if (decision == TraceDecision::kAdmit) {
    cls.accepted.fetch_add(1, std::memory_order_relaxed);
  } else {
    // rejected first, shed second (admitted() reads them in the opposite
    // order): a concurrent snapshot between the two increments then
    // undercounts shed rather than overcounting it.
    cls.rejected.fetch_add(1, std::memory_order_relaxed);
    if (decision == TraceDecision::kShed) {
      cls.shed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return decision;
}

void ServiceCore::record_batch(std::uint32_t shard, std::size_t size) {
  if (TraceRecorder* rec = recorder_.load(std::memory_order_relaxed)) {
    rec->on_batch(shard, static_cast<std::uint32_t>(size));
  }
}

AdmissionCounts ServiceCore::admitted(std::uint32_t c) const {
  const ClassState& cls = *classes_[c];
  const std::uint64_t shed = cls.shed.load(std::memory_order_relaxed);
  return {.accepted = cls.accepted.load(std::memory_order_relaxed),
          .rejected = cls.rejected.load(std::memory_order_relaxed),
          .shed = shed};
}

ServiceReport ServiceCore::report() const {
  ServiceReport report;
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    report.classes.push_back(accounting_.fold_class(c, admitted(c)));
    report.classes.back().epoch_id = classes_[c]->epoch_id;
  }
  return report;
}

}  // namespace asl::server
