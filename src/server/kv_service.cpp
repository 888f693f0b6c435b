#include "server/kv_service.h"

#include <cstdio>
#include <cstdlib>

#include "obs/sampler.h"
#include "platform/affinity.h"
#include "platform/time.h"
#include "server/telemetry.h"
#include "workload/cs_workload.h"

namespace asl::server {
namespace {

// The real clock's price of a segment: its NOPs spun at this core's speed.
void spin(const SpeedFactors& speed, Price price) {
  spin_nops(price.cs_speed ? speed.scale_cs(price.nops)
                           : speed.scale_ncs(price.nops));
}

}  // namespace

KvService::KvService(KvServiceConfig config)
    : core_(std::move(config), ServiceCore::Slots::kPerWorker) {
  const KvServiceConfig& cfg = core_.config();
  shards_.reserve(cfg.num_shards);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    std::unique_ptr<db::KvEngine> engine = db::make_kv_engine(cfg.engine);
    if (engine == nullptr) {
      std::fprintf(stderr, "KvService: %s\n",
                   db::kv_engine_error(cfg.engine).c_str());
      std::abort();
    }
    shards_.push_back(std::make_unique<Shard>(std::move(engine)));
  }

  // Register each request class as a named epoch seeded with the core's
  // controller config.
  for (std::uint32_t c = 0; c < core_.num_classes(); ++c) {
    ServiceCore::ClassState& cls = core_.class_state(c);
    EpochOptions opts;
    opts.default_slo_ns = cls.spec.slo_ns;
    opts.controller = cls.controller;
    cls.epoch_id =
        EpochRegistry::instance().register_epoch(cls.spec.name, opts);
  }

  // Prefill: each shard's own keys, ascending, in one bulk_load. The
  // engine decides the shape its initial data takes (DESIGN.md §7) — for
  // mvcc that is the balanced tree, whatever the shard count.
  if (cfg.prefill_keys > 0) {
    std::vector<std::vector<std::uint64_t>> shard_keys(cfg.num_shards);
    for (std::uint64_t key = 0; key < cfg.prefill_keys; ++key) {
      shard_keys[shard_of(key)].push_back(key);
    }
    for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
      shards_[s]->engine->bulk_load(shard_keys[s], "prefill");
    }
  }

  // Telemetry sampler (DESIGN.md §11) over the core's pipeline. The epoch
  // defaults to the construction instant so a stop()-without-start() final
  // tick still lands on a sane time axis; start() re-stamps it.
  if (KvTelemetry* telem = core_.telemetry()) {
    telemetry_start_ns_ = now_ns();
    sampler_ = std::make_unique<obs::Sampler>(
        cfg.telemetry.sample_period_ns,
        [this, telem](std::uint64_t, Nanos now) {
          telem->fold_tick(
              now > telemetry_start_ns_ ? now - telemetry_start_ns_ : 0);
        });
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
  workers_.reserve(core_.workers().size());
  for (const WorkerSpec& worker : core_.workers()) {
    workers_.emplace_back([this, &worker] { worker_loop(worker); });
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
  core_.close();
  for (auto& worker : workers_) {
    worker.join();
  }
  if (workers_.empty()) {
    // Never started: drain inline (each shard under its first worker's
    // core type) so the "after stop(), completed == accepted" invariant
    // holds regardless of lifecycle. The queues are already closed, so the
    // shared drain loop runs the batched pops dry and returns.
    for (const WorkerSpec& worker : core_.workers()) {
      if (worker.index != worker.shard) continue;  // one drainer per shard
      ScopedCoreType scoped(worker.type);
      drain_queue(worker);
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

bool KvService::try_submit(OpType op, std::uint64_t key,
                           std::uint32_t class_index) {
  if (class_index >= core_.num_classes()) return false;
  return core_.admit(Request{op, key, class_index, now_ns()},
                     shard_of(key)) == TraceDecision::kAdmit;
}

int KvService::epoch_id(std::uint32_t class_index) const {
  return class_index < core_.num_classes()
             ? core_.class_state(class_index).epoch_id
             : -1;
}

std::size_t KvService::queue_depth(std::uint32_t shard) const {
  return shard < shards_.size() ? core_.queue(shard).size() : 0;
}

std::size_t KvService::store_size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->engine->size();
  return n;
}

void KvService::worker_loop(const WorkerSpec& worker) {
  if (core_.config().pin_workers) {
    pin_to_cpu_wrapped(worker.index);
  }
  ScopedCoreType scoped(worker.type);
  drain_queue(worker);
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

void KvService::drain_queue(const WorkerSpec& worker) {
  BoundedQueue<Request>& queue = core_.queue(worker.shard);
  // One arena and one batch per worker, on the drain loop's own stack:
  // naturally private to this thread for the whole run (see ValueArena's
  // sharing note).
  ValueArena arena;
  Batch batch = core_.batch();
  Request head;
  while (queue.pop(head)) {
    serve_batch(worker, head, batch, arena);
  }
}

void KvService::serve_batch(const WorkerSpec& worker, const Request& head,
                            Batch& batch, ValueArena& arena) {
  Shard& shard = *shards_[worker.shard];
  KvAccounting& accounting = core_.accounting();
  const SpeedFactors speed = worker.type == CoreType::kBig
                                 ? SpeedFactors::big()
                                 : SpeedFactors::little();

  // The head's value is formatted here — outside the critical section, into
  // the worker's arena (DESIGN.md §9). Later members' values are formatted
  // as they are served, inside the lock they were discovered under.
  const std::string_view head_value = head.op == OpType::kPut
                                          ? arena.format_value(head.key)
                                          : std::string_view{};
  // Ends the head's queue wait and starts its lock wait.
  const Nanos head_start = now_ns();
  batch.start(head, head_start);

  // The acquisition runs under the *head* request's class epoch: one
  // reorder-dispatch decision per batch, governed by the window of the
  // class that was at the front of the queue (DESIGN.md §6).
  epoch_start(core_.class_state(head.class_index).epoch_id);

  // Span hooks (DESIGN.md §11): a traced head (the span tracer's 1-in-N
  // gate) contributes one span per phase it passes through.
  KvTelemetry* const telem = core_.telemetry();
  const bool traced = telem && telem->tracer().sample(worker.index);
  if (traced) {
    telem->tracer().record(worker.index, obs::SpanPhase::kQueueWait,
                           head.enqueue_ns, batch[0].wait);
  }

  Nanos t_acq = 0;
  if (batch.locked()) {
    shard.lock.lock();
    // Ends the lock wait and starts the hold, which ends at the last
    // critical-section member's done stamp.
    t_acq = now_ns();
    batch.extend(core_.queue(worker.shard), now_ns);
  }
  // One serve pass in the kernel's order: the critical-section members,
  // the release, then the deferred lock-free gets. A request is done at the
  // end of its own segment, not the batch's: later members pay for the
  // work ahead of them in their measured latency, exactly like requests
  // served by separate acquisitions.
  std::uint64_t cs_gets = 0;
  std::uint64_t lockfree_gets = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Batch::Member& m = batch[i];
    const Segment segment = batch.segment(i);
    spin(speed, core_.price(m.req.op, segment));
    if (m.req.op == OpType::kPut) {
      shard.engine->put(m.req.key,
                        i == 0 ? head_value : arena.format_value(m.req.key));
    } else {
      (void)shard.engine->get(m.req.key);
      (segment == Segment::kCritical ? cs_gets : lockfree_gets) += 1;
    }
    m.done = now_ns();
    if (i + 1 != batch.cs_count()) continue;
    shard.lock.unlock();
    // Recorded after the release, so accounting never extends the critical
    // section. The acquisition is attributed to the head's op kind:
    // get_route_acquires must stay zero on a lock-free profile.
    accounting.acquisition(worker.slot, head.op == OpType::kPut);
    accounting.lock_wait(worker.slot, t_acq - head_start);
    accounting.lock_hold(worker.slot, m.done - t_acq);
    if (cs_gets > 0) accounting.cs_gets(worker.slot, cs_gets);
    if (traced) {
      telem->tracer().record(worker.index, obs::SpanPhase::kLockWait,
                             head_start, t_acq - head_start);
      telem->tracer().record(worker.index, obs::SpanPhase::kCriticalSection,
                             t_acq, m.done - t_acq);
    }
    // The recorder's internal lock must not extend the critical section.
    core_.record_batch(worker.shard, batch.size());
  }
  if (lockfree_gets > 0) accounting.lockfree_gets(worker.slot, lockfree_gets);
  if (traced && !batch.locked()) {
    telem->tracer().record(worker.index, obs::SpanPhase::kCriticalSection,
                           head_start, batch[0].done - head_start);
  }

  // Per-request feedback even though the acquisition was shared: the head
  // ends the epoch opened before the lock; every later member brackets its
  // own class epoch with an immediate start/end pair. Each served request
  // therefore counts exactly one completion in its class's epoch, and each
  // class controller sees that request's end-to-end latency (queue wait
  // included) — batching amortizes the lock, never the feedback.
  const Nanos post_start = traced ? now_ns() : 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Batch::Member& m = batch[i];
    const ServiceCore::ClassState& cls = core_.class_state(m.req.class_index);
    const Nanos total = core_.complete(worker, m, m.done);
    if (i > 0) epoch_start(cls.epoch_id);
    if (cls.spec.slo_ns > 0) {
      epoch_end_with_latency(cls.epoch_id, cls.spec.slo_ns, total);
    } else {
      epoch_end(cls.epoch_id);
    }
    spin(speed, core_.price(m.req.op, Segment::kPost));
  }
  if (traced) {
    telem->tracer().record(worker.index, obs::SpanPhase::kPostSection,
                           post_start, now_ns() - post_start);
  }
  // Recycle every value slot for the next batch. The engines copied the
  // bytes during their put calls, so nothing references the arena now.
  arena.release();
}

}  // namespace asl::server
