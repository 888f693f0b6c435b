#include "server/kv_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/sampler.h"
#include "platform/affinity.h"
#include "platform/rng.h"
#include "platform/time.h"
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

KvService::KvService(KvServiceConfig config)
    : config_(clamped_config(std::move(config))),
      cost_(resolved_cost_profile(config_)),
      accounting_(config_.classes,
                  config_.num_shards * config_.workers_per_shard,
                  big_worker_count(config_)) {
  shards_.reserve(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    std::unique_ptr<db::KvEngine> engine = db::make_kv_engine(config_.engine);
    if (engine == nullptr) {
      std::fprintf(stderr, "KvService: %s\n",
                   db::kv_engine_error(config_.engine).c_str());
      std::abort();
    }
    shards_.push_back(
        std::make_unique<Shard>(config_.queue_capacity, std::move(engine)));
  }

  // Register each request class as a named epoch, its controller seeded
  // proportionally to the SLO by the same rule the simulator configs use.
  for (const RequestClass& spec : config_.classes) {
    auto cs = std::make_unique<ClassState>();
    cs->spec = spec;
    cs->depth_limit = shed_threshold(spec.admission, config_.queue_capacity);
    EpochOptions opts;
    opts.default_slo_ns = spec.slo_ns;
    if (spec.slo_ns > 0) {
      seed_config_for_slo(opts.controller, spec.slo_ns);
    }
    cs->epoch_id = EpochRegistry::instance().register_epoch(spec.name, opts);
    classes_.push_back(std::move(cs));
  }

  // Prefill: each shard's own keys, ascending, in one bulk_load. The
  // engine decides the shape its initial data takes (DESIGN.md §7) — for
  // mvcc that is the balanced tree, whatever the shard count.
  if (config_.prefill_keys > 0) {
    std::vector<std::vector<std::uint64_t>> shard_keys(config_.num_shards);
    for (std::uint64_t key = 0; key < config_.prefill_keys; ++key) {
      shard_keys[shard_of(key)].push_back(key);
    }
    for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
      shards_[s]->engine->bulk_load(shard_keys[s], "prefill");
    }
  }

  // Worker slots: worker w serves shard w % num_shards; the first
  // big_worker_count slots are big, the rest little (m1_layout order).
  const std::uint32_t n = config_.num_shards * config_.workers_per_shard;
  const std::uint32_t num_big = big_worker_count(config_);
  for (std::uint32_t w = 0; w < n; ++w) {
    WorkerSlot slot;
    slot.index = w;
    slot.shard = w % config_.num_shards;
    slot.type = w < num_big ? CoreType::kBig : CoreType::kLittle;
    slot.speed =
        slot.type == CoreType::kBig ? SpeedFactors::big() : SpeedFactors::little();
    slots_.push_back(slot);
  }

  // Telemetry pipeline (DESIGN.md §11), built and frozen here so nothing on
  // the hot path or in a sampler tick ever allocates. The epoch defaults to
  // the construction instant so a stop()-without-start() final tick still
  // lands on a sane time axis; start() re-stamps it.
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<KvTelemetry>(config_, accounting_);
    telemetry_start_ns_ = now_ns();
    sampler_ = std::make_unique<obs::Sampler>(
        config_.telemetry.sample_period_ns,
        [this](std::uint64_t, Nanos now) { telemetry_tick(now); });
  }
}

KvService::~KvService() { stop(); }

void KvService::start() {
  // Whole transition under the lifecycle lock: a concurrent stop() either
  // runs first (stopped_ is set, no workers ever spawn) or waits until the
  // worker vector is fully populated and joins every thread. The old plain-
  // bool flags made start()/stop() from different threads a data race.
  lifecycle_lock_.lock();
  if (running_.load(std::memory_order_relaxed) ||
      stopped_.load(std::memory_order_relaxed)) {
    lifecycle_lock_.unlock();
    return;
  }
  running_.store(true, std::memory_order_relaxed);
  workers_.reserve(slots_.size());
  for (const WorkerSlot& slot : slots_) {
    workers_.emplace_back([this, &slot] { worker_loop(slot); });
  }
  if (sampler_) {
    // The time axis starts when service does; the sampler rides along for
    // the whole worker lifetime (stop() ends it after the joins).
    telemetry_start_ns_ = now_ns();
    sampler_->start();
  }
  lifecycle_lock_.unlock();
}

void KvService::stop() {
  lifecycle_lock_.lock();
  if (stopped_.load(std::memory_order_relaxed)) {
    lifecycle_lock_.unlock();
    return;
  }
  stopped_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    shard->queue.close();
  }
  for (auto& worker : workers_) {
    worker.join();
  }
  if (workers_.empty()) {
    // Never started: drain inline (each shard under its first worker slot's
    // core type) so the "after stop(), completed == accepted" invariant
    // holds regardless of lifecycle. The queues are already closed, so the
    // shared drain loop runs the batched pops dry and returns.
    for (const WorkerSlot& slot : slots_) {
      if (slot.index != slot.shard) continue;  // one drainer per shard
      ScopedCoreType scoped(slot.type);
      drain_queue(slot);
    }
  }
  if (sampler_) {
    // After the joins / inline drain: the sampler's final tick is the one
    // sample guaranteed to see empty queues and final counters.
    sampler_->stop();
  }
  workers_.clear();
  running_.store(false, std::memory_order_relaxed);
  lifecycle_lock_.unlock();
}

std::uint32_t KvService::shard_of(std::uint64_t key) const {
  return shard_for_key(key, config_.num_shards);
}

bool KvService::try_submit(OpType op, std::uint64_t key,
                           std::uint32_t class_index) {
  if (class_index >= classes_.size()) return false;
  ClassState& cs = *classes_[class_index];
  Request req;
  req.op = op;
  req.key = key;
  req.class_index = class_index;
  req.enqueue_ns = now_ns();
  const std::uint32_t shard = shard_of(key);
  // The class's precomputed depth limit turns the push into the shed
  // decision: protected classes carry limit == capacity (plain bounded-
  // queue admission), sheddable classes bounce early at their watermark.
  const PushResult pushed =
      shards_[shard]->queue.try_push_below(req, cs.depth_limit);
  if (TraceRecorder* rec = recorder_.load(std::memory_order_relaxed)) {
    const TraceDecision decision = pushed == PushResult::kOk
                                       ? TraceDecision::kAdmit
                                       : pushed == PushResult::kShed
                                             ? TraceDecision::kShed
                                             : TraceDecision::kReject;
    rec->on_arrival(req.enqueue_ns, class_index, op == OpType::kPut, key,
                    decision, shard);
  }
  switch (pushed) {
    case PushResult::kOk:
      cs.accepted.fetch_add(1, std::memory_order_relaxed);
      return true;
    case PushResult::kShed:
      // rejected first, shed second (and report() reads them in the
      // opposite order): a concurrent snapshot between the two increments
      // then undercounts shed rather than overcounting it, preserving the
      // shed <= rejected contract consumers subtract on.
      cs.rejected.fetch_add(1, std::memory_order_relaxed);
      cs.shed.fetch_add(1, std::memory_order_relaxed);
      return false;
    case PushResult::kFull:
      cs.rejected.fetch_add(1, std::memory_order_relaxed);
      return false;
  }
  return false;  // unreachable: the switch above is exhaustive
}

void KvService::set_recorder(TraceRecorder* recorder) {
  recorder_.store(recorder, std::memory_order_relaxed);
}

int KvService::epoch_id(std::uint32_t class_index) const {
  return class_index < classes_.size() ? classes_[class_index]->epoch_id : -1;
}

std::size_t KvService::queue_depth(std::uint32_t shard) const {
  return shard < shards_.size() ? shards_[shard]->queue.size() : 0;
}

std::size_t KvService::store_size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->engine->size();
  return n;
}

ServiceReport KvService::report() const {
  ServiceReport report;
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    const ClassState& cs = *classes_[c];
    // shed before rejected: the mirror of try_submit's increment order, so
    // a racing snapshot undercounts shed rather than overcounting it.
    const std::uint64_t shed = cs.shed.load(std::memory_order_relaxed);
    report.classes.push_back(accounting_.fold_class(
        c, {.accepted = cs.accepted.load(std::memory_order_relaxed),
            .rejected = cs.rejected.load(std::memory_order_relaxed),
            .shed = shed}));
    report.classes.back().epoch_id = cs.epoch_id;
  }
  return report;
}

void KvService::telemetry_tick(Nanos now) {
  // Snapshot into the preallocated scratch — relaxed racing reads of the
  // same counters report() takes, at sampler fidelity (DESIGN.md §11).
  TelemetryTickInputs& in = telemetry_->inputs();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const ClassState& cs = *classes_[c];
    in.class_accepted[c] = cs.accepted.load(std::memory_order_relaxed);
    in.class_shed[c] = cs.shed.load(std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    in.shard_depth[s] = shards_[s]->queue.size();
  }
  telemetry_->fold_tick(now > telemetry_start_ns_ ? now - telemetry_start_ns_
                                                  : 0);
}

void KvService::worker_loop(const WorkerSlot& slot) {
  if (config_.pin_workers) {
    pin_to_cpu_wrapped(slot.index);
  }
  ScopedCoreType scoped(slot.type);
  drain_queue(slot);
  // No epoch-state reset here: the thread_local destructor folds this
  // worker's completion counts into the registry, which is how post-stop
  // snapshots still account for every served request.
}

std::string_view ValueArena::format_value(std::uint64_t key) {
  // The 1-byte alignment request packs slots tightly; with the null
  // upstream, running past the fixed buffer would throw rather than touch
  // the heap — unreachable by the sizing (kMaxBatch slots per batch).
  char* slot = static_cast<char*>(resource_.allocate(kSlotBytes, 1));
  const int len = std::snprintf(slot, kSlotBytes, "v:%llu",
                                static_cast<unsigned long long>(key));
  return std::string_view(slot, static_cast<std::size_t>(len));
}

void KvService::drain_queue(const WorkerSlot& slot) {
  Shard& shard = *shards_[slot.shard];
  // One arena per worker, on the drain loop's own stack: naturally private
  // to this thread for the whole run (see ValueArena's sharing note).
  ValueArena arena;
  Request head;
  while (shard.queue.pop(head)) {
    serve_batch(slot, head, arena);
  }
}

void KvService::serve_batch(const WorkerSlot& slot, const Request& head,
                            ValueArena& arena) {
  Shard& shard = *shards_[slot.shard];
  struct Served {
    Request req;
    std::string_view value;  // arena-formatted put value (empty for gets)
    Nanos wait = 0;  // enqueue -> pop (the instant a worker took charge)
    Nanos done = 0;  // end of the request's critical-section segment
  };
  Served batch[kMaxBatch];
  std::size_t count = 0;
  const std::size_t batch_k = config_.batch_k;  // clamped to kMaxBatch

  // The head's value is formatted here — outside the critical section, into
  // the worker's arena (DESIGN.md §9). This is the put path's whole point:
  // the old code built a std::string inside the shard lock on every put.
  const std::string_view head_value =
      head.op == OpType::kPut ? arena.format_value(head.key)
                              : std::string_view{};
  // Ends the head's queue wait and starts its lock wait.
  const Nanos head_start = now_ns();
  batch[count++] = Served{
      head, head_value,
      head_start > head.enqueue_ns ? head_start - head.enqueue_ns : 0, 0};

  // The acquisition runs under the *head* request's class epoch: one
  // reorder-dispatch decision per batch, governed by the window of the
  // class that was at the front of the queue (DESIGN.md §6).
  ClassState& head_cls = *classes_[head.class_index];
  epoch_start(head_cls.epoch_id);

  // Span hooks (DESIGN.md §11): a traced head (the span tracer's 1-in-N
  // gate) contributes one span per phase it passes through.
  KvTelemetry* const telem = telemetry_.get();
  const bool traced = telem && telem->tracer().sample(slot.index);
  if (traced) {
    telem->tracer().record(slot.index, obs::SpanPhase::kQueueWait,
                           head.enqueue_ns, batch[0].wait);
  }

  // Lock-free get route (DESIGN.md §8): the engine's snapshot read is
  // wait-free against writers, so a get-headed serve touches neither the
  // shard lock nor the batch extension — the head alone is served with the
  // off-lock gets below, and the next waiting request is picked up by the
  // regular pop loop immediately.
  const bool lock_free_gets = cost_.get_lock_free;
  const bool locked = !(lock_free_gets && head.op == OpType::kGet);
  if (locked) {
    shard.lock.lock();
    // Ends the lock wait and starts the hold, which ends at the last
    // critical-section member's done stamp.
    const Nanos t_acq = now_ns();
    // Batch extension after the acquisition: requests that were already
    // waiting when the lock was won ride along in this critical section;
    // the drain never waits for new arrivals. Extension values are
    // formatted at pop time — inside the lock (they cannot exist earlier:
    // the batch is discovered under it) but still allocation-free, a
    // bounded snprintf into the same arena.
    Request more;
    while (count < batch_k && shard.queue.try_pop(more)) {
      const std::string_view value = more.op == OpType::kPut
                                         ? arena.format_value(more.key)
                                         : std::string_view{};
      const Nanos t = now_ns();
      batch[count++] = Served{
          more, value, t > more.enqueue_ns ? t - more.enqueue_ns : 0, 0};
    }
    // Critical-section pass. On a lock-free profile only the puts run here
    // — gets that rode a put-headed batch are deferred past the release
    // (served below, off-lock, in pop order). On locked profiles this is
    // the historic path serving every op in pop order, byte-identical
    // behaviour to before the route split.
    Nanos cs_end = t_acq;
    std::uint64_t cs_gets = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Request& req = batch[i].req;
      const bool is_put = req.op == OpType::kPut;
      if (lock_free_gets && !is_put) continue;
      // Per-op cost class (DESIGN.md §7): the emulated critical-section
      // cost of *this* op's kind, on top of the actual engine call below.
      spin_nops(slot.speed.scale_cs(cost_.op(is_put).cs_nops));
      if (is_put) {
        shard.engine->put(req.key, batch[i].value);
      } else {
        (void)shard.engine->get(req.key);
        cs_gets += 1;
      }
      // A request is done at the end of its own segment, not the batch's:
      // later batch members pay for the work ahead of them in their
      // measured latency, exactly like requests served by separate
      // acquisitions.
      batch[i].done = now_ns();
      cs_end = batch[i].done;
    }
    shard.lock.unlock();
    // Recorded after the release, so accounting never extends the critical
    // section. The acquisition is attributed to the head's op kind:
    // get_route_acquires must stay zero on a lock-free profile.
    accounting_.acquisition(slot.index, head.op == OpType::kPut);
    accounting_.lock_wait(slot.index, t_acq - head_start);
    accounting_.lock_hold(slot.index, cs_end - t_acq);
    if (cs_gets > 0) accounting_.cs_gets(slot.index, cs_gets);
    if (traced) {
      telem->tracer().record(slot.index, obs::SpanPhase::kLockWait,
                             head_start, t_acq - head_start);
      telem->tracer().record(slot.index, obs::SpanPhase::kCriticalSection,
                             t_acq, cs_end - t_acq);
    }
    // Batch-size capture after the release: the recorder's internal lock
    // must not extend the shard critical section. `count` is final — the
    // extension loop closed before the CS pass.
    if (TraceRecorder* rec = recorder_.load(std::memory_order_relaxed)) {
      rec->on_batch(slot.shard, static_cast<std::uint32_t>(count));
    }
  }
  if (lock_free_gets) {
    // Off-lock gets: the lone head, or the gets that rode a put-headed batch,
    // after the puts published. The emulated service time is the get
    // class's cs_nops at non-CS speed (the twin charges it under
    // ncs_slowdown). Each get is done at the end of its own segment, so one
    // that waited behind two puts and another get pays for all three in its
    // measured latency — the same segment rule as the CS pass.
    std::uint64_t gets = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Request& req = batch[i].req;
      if (req.op == OpType::kPut) continue;
      spin_nops(slot.speed.scale_ncs(cost_.get.cs_nops));
      (void)shard.engine->get(req.key);
      batch[i].done = now_ns();
      gets += 1;
    }
    if (gets > 0) accounting_.lockfree_gets(slot.index, gets);
    if (traced && !locked) {
      telem->tracer().record(slot.index, obs::SpanPhase::kCriticalSection,
                             head_start, batch[0].done - head_start);
    }
  }

  // Per-request feedback even though the acquisition was shared: the head
  // ends the epoch opened before the lock; every later member brackets its
  // own class epoch with an immediate start/end pair. Each served request
  // therefore counts exactly one completion in its class's epoch, and each
  // class controller sees that request's end-to-end latency (queue wait
  // included) — batching amortizes the lock, never the feedback.
  const Nanos post_start = traced ? now_ns() : 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Request& req = batch[i].req;
    ClassState& cs = *classes_[req.class_index];
    const Nanos total =
        batch[i].done > req.enqueue_ns ? batch[i].done - req.enqueue_ns : 0;
    if (i > 0) epoch_start(cs.epoch_id);
    if (cs.spec.slo_ns > 0) {
      epoch_end_with_latency(cs.epoch_id, cs.spec.slo_ns, total);
    } else {
      epoch_end(cs.epoch_id);
    }
    accounting_.complete(slot.index, req.class_index, total, batch[i].wait);
    spin_nops(slot.speed.scale_ncs(
        cost_.op(req.op == OpType::kPut).post_nops));
  }
  if (traced) {
    telem->tracer().record(slot.index, obs::SpanPhase::kPostSection,
                           post_start, now_ns() - post_start);
  }
  // Recycle every value slot for the next batch. The engines copied the
  // bytes during their put calls, so nothing references the arena now.
  arena.release();
}

}  // namespace asl::server
