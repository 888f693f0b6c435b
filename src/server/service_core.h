// ServiceCore — the KV service's policy kernel (DESIGN.md §5), shared by
// both clocks: KvService (kv_service.h) runs it on threads and the wall
// clock, SimKvService (sim_kv_service.h) on discrete events and virtual
// time. Each holds one ServiceCore, and the core owns everything that
// decides what the service does:
//   * the resolved configuration (clamped_config, the cost profile, each
//     class's depth limit and controller seed, each worker's shard, core
//     type and accounting slot), the accounting store (KvAccounting) and
//     the per-class admission counters — report() and the telemetry
//     sampler fold them;
//   * admission: one BoundedQueue<Request> per shard, pushed with
//     try_push_below at the class's depth limit, the result counted and
//     returned as a TraceDecision;
//   * batch formation and the get/put route split (Batch);
//   * pricing: which NOP class, at CS or non-CS speed, a segment costs.
// The core reads no clock: every instant is an argument. Determinism is
// the clock's: Replay on the twin (same inputs and build, same bytes), Off
// on the real path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asl/window_controller.h"
#include "db/engine.h"
#include "obs/metrics.h"
#include "platform/cacheline.h"
#include "platform/rng.h"
#include "platform/time.h"
#include "platform/topology.h"
#include "server/request_queue.h"
#include "stats/histogram.h"
#include "stats/latency_split.h"

namespace asl::server {

class KvTelemetry;    // server/telemetry.h
class TraceRecorder;  // workload/trace.h

// The two engine operations a request can carry: kGet reads the key (a
// miss is not an error — unprefilled keys simply return nothing), kPut
// upserts a value derived from the key. A put always runs inside the shard
// lock; a get does too unless the profile is get_lock_free (Batch).
enum class OpType : std::uint8_t { kGet = 0, kPut = 1 };

// Key -> shard mapping (ServiceCore::shard_of; trace replay recomputes
// recorded routes with it): splitmix64 decorrelates shard choice from key
// order, spreading zipfian-hot ranks and sequential prefills alike over
// the shards.
inline std::uint32_t shard_for_key(std::uint64_t key,
                                   std::uint32_t num_shards) {
  std::uint64_t h = key;
  return static_cast<std::uint32_t>(splitmix64(h) % num_shards);
}

// Upper bound on batch_k (clamped_config enforces it): a worker never
// carries more than this many requests through one lock acquisition (a
// Batch is a fixed array of this many members, and unbounded batches would
// starve the other worker of a shard anyway).
inline constexpr std::size_t kMaxBatch = 64;

// One queued request. `class_index` is the dense index into the configured
// request classes (each of which owns a registered epoch id). A fixed-size
// value type on purpose: the shard queues are preallocated rings of these,
// so admission moves 24 bytes and never touches the heap (DESIGN.md §9).
// The class index sits beside the op so the struct packs to 24 bytes, and a
// queue cell with its sequence number to 32.
struct Request {
  OpType op = OpType::kGet;
  std::uint32_t class_index = 0;
  std::uint64_t key = 0;
  Nanos enqueue_ns = 0;
};
static_assert(sizeof(Request) == 24);

// Class-aware admission control (DESIGN.md §6). Under backpressure the
// bounded shard queues should not degrade every class together: deliberately
// rejecting ("shedding") the loose-SLO class early keeps queue headroom —
// and therefore queueing delay — for the tight-SLO class. The policy is two
// knobs that combine into one depth threshold:
//
//   * shed_priority — 0 marks the class protected: it is rejected only by a
//     genuinely full queue (exactly the class-blind FIFO behaviour shedding
//     replaces). Values >= 1 mark it sheddable; larger values shed earlier.
//   * watermark — the queue-depth fraction of capacity where priority-1
//     shedding begins. Each further priority level halves geometrically:
//     priority p sheds once depth >= capacity * watermark^p. Priority 0
//     yields watermark^0 = 1.0, i.e. the full-capacity limit, which is how
//     "protected" and "plain FIFO rejection" are the same code path.
//
// shed_threshold() is that formula; the core turns it into each class's
// depth limit once, for both clocks. Shed rejections are counted per
// class (ClassReport::shed, a subset of rejected): deliberate sheds are
// admission policy at work, not overload, which is why class_meets_slo()
// exempts them from the rejection bound.
struct AdmissionPolicy {
  std::uint32_t shed_priority = 0;  // 0 = protected (full-queue rejects only)
  double watermark = 0.5;           // depth fraction where priority 1 sheds
};

// The depth limit `policy` imposes on a queue of `capacity` slots: requests
// of the class are admitted only while depth < the returned limit. Clamped
// to [1, capacity] so a sheddable class always has at least one slot when
// the queue is otherwise empty (a zero limit would starve a class even at
// idle, which is a misconfiguration, not a policy).
inline std::size_t shed_threshold(const AdmissionPolicy& policy,
                                  std::size_t capacity) {
  if (policy.shed_priority == 0) return capacity;
  double fraction = 1.0;
  for (std::uint32_t p = 0; p < policy.shed_priority; ++p) {
    fraction *= policy.watermark;
  }
  // Nudge before flooring: watermarks like 0.29 are not exactly
  // representable, so capacity * fraction can land a hair under the
  // intended integer (100 * 0.29 == 28.999...) and a bare truncation
  // would shed one slot early.
  const double slots =
      std::floor(static_cast<double>(capacity) * fraction + 1e-9);
  if (slots <= 1.0) return 1;
  if (slots >= static_cast<double>(capacity)) return capacity;
  return static_cast<std::size_t>(slots);
}

// A request class: its epoch name (registered with the EpochRegistry at
// service construction), the end-to-end latency SLO, and its admission
// policy. slo_ns == 0 means "no SLO": the epoch still tags the request but
// runs no feedback. The default admission policy is protected, so configs
// that never mention shedding behave exactly as before.
struct RequestClass {
  std::string name;
  Nanos slo_ns = 0;
  AdmissionPolicy admission{};
};

// Live-telemetry knobs (DESIGN.md §11). Default-off: no sampler thread, no
// time series, no spans. The metrics are recorded either way — they are the
// accounting store report() folds. With enabled = true the service
// preallocates the rest of the pipeline at construction (time-series
// capacity, span rings), so sampling and tracing stay allocation-free —
// the telemetry-on kv_alloc_audit zero is part of the contract.
struct TelemetryConfig {
  bool enabled = false;
  // Fold cadence of the sampler thread (real path) / of the virtual-time
  // tick events the twin schedules over its horizon.
  Nanos sample_period_ns = 5 * kNanosPerMilli;
  // Preallocated points per series; later ticks drop (and count drops).
  std::size_t max_ticks = 4096;
  // Span tracing: 1-in-N request sampling per worker (0 = off — the
  // compiled-in, default-off knob) into fixed per-worker rings that
  // overwrite oldest when full.
  std::uint32_t span_sample_every = 0;
  std::size_t span_ring_capacity = 1024;
};

struct KvServiceConfig {
  std::uint32_t num_shards = 4;
  std::size_t queue_capacity = 256;  // per shard
  // Workers = num_shards * workers_per_shard; worker w serves shard
  // w % num_shards, so 2 workers/shard pairs a big with a little worker on
  // every shard (AMP contention on the shard lock).
  std::uint32_t workers_per_shard = 1;
  // How many workers declare CoreType::kBig (the rest are little); ~0u =
  // half, rounded up.
  std::uint32_t big_workers = ~0u;
  bool pin_workers = true;
  // Storage engine per shard, by registry name (db/engine.h: "hash",
  // "btree", "lsm"). An unknown name is a configuration bug: the service
  // aborts at construction with kv_engine_error's diagnosis.
  std::string engine = "hash";
  // Per-op service-cost classes (DESIGN.md §7). All-zero (the default)
  // resolves to the engine's checked-in calibrated profile
  // (db::default_cost_profile); a non-empty profile — e.g. one measured by
  // the engine_calib harness on this host — overrides it. Either way every
  // class is scaled by cost_scale (the overload scenarios' knob: scaling
  // preserves the get/put asymmetry instead of folding it away). The real
  // worker spins cs_nops inside the shard lock and post_nops after release
  // (core-speed scaled, cs_workload.h semantics) on top of the actual
  // engine op; the twin charges the identical classes in virtual time.
  db::CostProfile cost{};
  double cost_scale = 1.0;
  // Keys [0, prefill_keys) are loaded at construction so gets can hit:
  // each shard's keys go to its engine in one KvEngine::bulk_load.
  std::uint64_t prefill_keys = 0;
  // Batch drain (DESIGN.md §6): a worker serves up to batch_k same-shard
  // requests per BlockingAslMutex acquisition — the blocking pop delivers
  // the batch head, up to batch_k-1 more waiting requests join after the
  // lock is acquired, and all of them execute back-to-back in one critical
  // section. One lock acquisition (and one reorder-dispatch decision, made
  // under the head request's class epoch) is amortized over the batch,
  // while latency accounting and controller feedback stay per-request.
  // batch_k = 1 is exactly the unbatched service. Clamped to [1, kMaxBatch].
  std::uint32_t batch_k = 1;
  std::vector<RequestClass> classes;
  // Live telemetry (metrics registry + sampler + span tracer, DESIGN.md
  // §11). Shared with the simulated twin, which samples the same series
  // schema in virtual time.
  TelemetryConfig telemetry;
};

// Construction-time clamping (ServiceCore's first step): shard, worker and
// queue minimums of 1, batch_k in [1, kMaxBatch], a default class.
KvServiceConfig clamped_config(KvServiceConfig config);

// How many of the num_shards * workers_per_shard workers are big: the first
// big_workers of them (~0u = half, rounded up).
std::uint32_t big_worker_count(const KvServiceConfig& config);

// The per-op cost classes `config` actually runs with: the explicit profile
// when set, otherwise the engine's checked-in default, either one scaled by
// cost_scale. Aborts (with kv_engine_error's message) when the profile must
// come from the registry but the engine name is unknown — checked even
// on the twin, which never builds an engine.
db::CostProfile resolved_cost_profile(const KvServiceConfig& config);

// Per-class accounting, merged across workers. Conservation contract:
// offered = accepted + rejected; shed <= rejected (a shed is one kind of
// rejection, so totals that sum accepted + rejected never double-count);
// after stop() / a twin drain, completed == accepted.
struct ClassReport {
  std::string name;
  int epoch_id = -1;
  Nanos slo_ns = 0;
  std::uint64_t accepted = 0;   // admitted to a shard queue
  std::uint64_t rejected = 0;   // all bounces: full-queue + shed
  std::uint64_t shed = 0;       // deliberate watermark rejections (subset)
  std::uint64_t completed = 0;  // served by a worker
  std::uint64_t slo_met = 0;    // completed with end-to-end latency <= SLO
  LatencySplit total;           // end-to-end latency, by worker core type
  Histogram queue_wait;         // admission -> service start

  // Fraction of completed requests that met the class SLO; vacuously 1.0
  // when nothing completed (an idle class has violated nothing).
  double attainment() const {
    return completed == 0 ? 1.0
                          : static_cast<double>(slo_met) /
                                static_cast<double>(completed);
  }
};

// Snapshot of every class's accounting, in config order. Totals below sum
// over classes; `shed` totals are part of total_rejected(), never added on
// top of it.
struct ServiceReport {
  std::vector<ClassReport> classes;

  std::uint64_t total_accepted() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.accepted;
    return n;
  }
  std::uint64_t total_rejected() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.rejected;
    return n;
  }
  std::uint64_t total_completed() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.completed;
    return n;
  }
  std::uint64_t total_shed() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.shed;
    return n;
  }
};

// Per-class capacity-probe pass/fail criterion, shared by the real path and
// the simulated twin: a class with an SLO passes iff its end-to-end p99 is
// within the SLO *and* its **hard** rejections (full-queue bounces, i.e.
// rejected - shed) are at most max_reject_fraction of its offered requests.
// A hard-rejected request is an infinite-latency request — with bounded
// queues, overload surfaces as rejections long before the queue-capped p99
// moves, so the rejection term is what detects saturation. Deliberate sheds
// are excluded from the bound: they are the admission policy working as
// configured, not the service failing, so shedding the loose class must not
// fail the tight class's capacity check (and the shed class itself is
// judged on the latency of what it actually served). Classes without an SLO
// (slo_ns == 0) pass vacuously.
inline bool class_meets_slo(const ClassReport& c,
                            double max_reject_fraction = 0.0) {
  if (c.slo_ns == 0) return true;
  const std::uint64_t offered = c.accepted + c.rejected;
  if (offered == 0) return true;
  // Defensive clamp: report() enforces shed <= rejected, but hand-built
  // reports may not, and an unsigned underflow here would read as an
  // astronomical rejection fraction.
  const std::uint64_t hard = c.rejected >= c.shed ? c.rejected - c.shed : 0;
  const double reject_fraction =
      static_cast<double>(hard) / static_cast<double>(offered);
  if (reject_fraction > max_reject_fraction) return false;
  return c.total.overall().p99() <= c.slo_ns;
}

// Whole-service criterion: every class passes class_meets_slo. This is the
// oracle the capacity probes bisect against on both paths.
inline bool report_meets_slos(const ServiceReport& report,
                              double max_reject_fraction = 0.0) {
  for (const ClassReport& c : report.classes) {
    if (!class_meets_slo(c, max_reject_fraction)) return false;
  }
  return true;
}

// Which route served what (DESIGN.md §8) — the observable that proves the
// lock-free read path is actually lock-free. Counted identically by the
// real service and the twin:
//   * get_route_acquires — shard-lock acquisitions whose batch head was a
//     get. Zero on a get_lock_free profile (the acceptance criterion: gets
//     never block on the shard mutex), nonzero on locked engines.
//   * put_route_acquires — acquisitions headed by a put.
//   * cs_gets — gets served inside a critical section (locked engines).
//   * lockfree_gets — gets served off-lock (head-get solo serves plus gets
//     that rode a put-headed batch and were deferred past the release).
// cs_gets + lockfree_gets == completed gets, always.
struct LockRouteStats {
  std::uint64_t get_route_acquires = 0;
  std::uint64_t put_route_acquires = 0;
  std::uint64_t cs_gets = 0;
  std::uint64_t lockfree_gets = 0;
};

// One class's admission counters. Any thread may submit, so they have no
// writer slot and stay outside the accounting store.
struct AdmissionCounts {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  // all bounces (shed included)
  std::uint64_t shed = 0;      // watermark bounces only
};

// The service's one accounting store (DESIGN.md §4): a MetricsRegistry with
// one slot per worker (per core type on the single-threaded twin); slots
// [0, big_slots) are big-core writers, which is how folds split latency.
// Everything a worker counts is recorded here by the slot's own writer.
// fold_class() and routes() are the one fold report(), lock_route_stats(),
// the twin and the telemetry sampler share — exact once writers quiesce.
class KvAccounting {
 public:
  KvAccounting(const std::vector<RequestClass>& classes,
               std::uint32_t num_slots, std::uint32_t big_slots);

  // --- recording (wait-free, allocation-free) ---------------------------
  // One served request: latency (whose count is `completed`), queue wait,
  // and slo_met when the class has no SLO or the latency is within it.
  void complete(std::uint32_t slot, std::uint32_t c, Nanos latency,
                Nanos queue_wait) {
    const ClassMetrics& m = classes_[c];
    registry_.observe(m.latency, slot, latency);
    registry_.observe(m.queue_wait, slot, queue_wait);
    if (m.spec.slo_ns == 0 || latency <= m.spec.slo_ns) {
      registry_.add(m.slo_met, slot, 1);
    }
  }
  // One shard-lock acquisition, attributed to its batch head's op kind.
  void acquisition(std::uint32_t slot, bool put_headed) {
    registry_.add(put_headed ? put_route_ : get_route_, slot, 1);
  }
  // Shard-lock wait (request -> acquisition) and hold of one acquisition.
  void lock_wait(std::uint32_t slot, Nanos wait) {
    registry_.observe(lock_wait_, slot, wait);
  }
  void lock_hold(std::uint32_t slot, Nanos hold) {
    registry_.observe(lock_hold_, slot, hold);
  }
  // Gets served inside a critical section / off-lock (DESIGN.md §8).
  void cs_gets(std::uint32_t slot, std::uint64_t n) {
    registry_.add(cs_gets_, slot, n);
  }
  void lockfree_gets(std::uint32_t slot, std::uint64_t n) {
    registry_.add(lockfree_gets_, slot, n);
  }

  // --- folds -------------------------------------------------------------
  // Class `c`'s report from the store and the caller's admission counters,
  // clamped so shed <= rejected and slo_met <= completed.
  ClassReport fold_class(std::uint32_t c,
                         const AdmissionCounts& admitted) const;
  LockRouteStats routes() const {
    return {registry_.fold(get_route_), registry_.fold(put_route_),
            registry_.fold(cs_gets_), registry_.fold(lockfree_gets_)};
  }

  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::MetricId latency_metric(std::uint32_t c) const {
    return classes_[c].latency;
  }
  obs::MetricId lock_wait_metric() const { return lock_wait_; }
  obs::MetricId lock_hold_metric() const { return lock_hold_; }

 private:
  struct ClassMetrics {
    RequestClass spec;
    obs::MetricId latency = 0;     // histogram: end-to-end latency
    obs::MetricId queue_wait = 0;  // histogram: admission -> service start
    obs::MetricId slo_met = 0;     // counter
  };

  obs::MetricsRegistry registry_;
  std::uint32_t big_slots_;
  std::vector<ClassMetrics> classes_;
  obs::MetricId get_route_ = 0, put_route_ = 0;  // counters: LockRouteStats
  obs::MetricId cs_gets_ = 0, lockfree_gets_ = 0;
  obs::MetricId lock_wait_ = 0, lock_hold_ = 0;  // histograms
};

// The three ways admission can go, in the order try_push_below reports
// them: admitted to a shard queue, deliberately shed at a class watermark,
// or hard-rejected by a full queue. Stable on-disk values (workload/trace.h
// records them).
enum class TraceDecision : std::uint8_t { kAdmit = 0, kShed = 1, kReject = 2 };

// One worker's fixed identity: worker `index` serves shard index %
// num_shards, the first big_worker_count workers are big, and it records
// into accounting slot `slot` of the store. Workers read their spec on
// every request, so each sits on its own cache line: no neighbouring
// write can ever invalidate it.
struct alignas(kCacheLine) WorkerSpec {
  std::uint32_t index = 0;
  std::uint32_t shard = 0;
  std::uint32_t slot = 0;
  CoreType type = CoreType::kBig;
};

// The three kinds of service segment a request passes through: its engine
// op inside the critical section, its engine op off-lock (a deferred get on
// a get_lock_free profile), and its post-op work after the batch.
enum class Segment : std::uint8_t { kCritical, kLockFree, kPost };

// What one segment costs: `nops` emulated NOPs at critical-section speed or
// at non-CS speed. Each clock converts it with its own core-speed factors —
// the real worker spins it (SpeedFactors), the twin charges virtual ns
// (sim::MachineParams slowdowns times SimTwinConfig::nop_ns).
struct Price {
  std::uint64_t nops = 0;
  bool cs_speed = false;
};

// One worker's batch (DESIGN.md §6, §8): the head plus up to batch_k-1
// requests already waiting when the shard lock was won, each filed into its
// route as it is popped — the critical section, or, for a get on a
// get_lock_free profile, the off-lock gets served after the release. Serve
// order is the critical-section members, then the deferred gets, each in
// pop order; the head is always member 0. A lock-free get head takes no
// lock and forms a one-member batch. The members are a fixed array: forming
// and routing a batch never allocates.
class Batch {
 public:
  struct Member {
    Request req;
    Nanos wait = 0;  // enqueue -> pop (the instant a worker took charge)
    Nanos done = 0;  // end of its service segment (the real path stamps it)
  };

  Batch(std::uint32_t batch_k, bool lock_free_gets)
      : limit_(std::min<std::size_t>(batch_k, kMaxBatch)),
        lock_free_gets_(lock_free_gets) {}

  // Begins a new batch at `head`, popped at `now`.
  void start(const Request& head, Nanos now) {
    cs_count_ = 0;
    deferred_count_ = 0;
    add(head, now);
  }
  // Whether the batch takes the shard lock (it has a critical section).
  bool locked() const { return cs_count_ > 0; }
  // Called once the lock is won: pops requests that are already waiting,
  // each stamped at now(), until the batch holds batch_k or the queue is
  // empty — it never waits for arrivals. A batch without a lock does not
  // extend.
  template <typename Now>
  void extend(BoundedQueue<Request>& queue, Now&& now) {
    if (!locked()) return;
    Request more;
    while (size() < limit_ && queue.try_pop(more)) add(more, now());
  }

  std::size_t size() const { return cs_count_ + deferred_count_; }
  std::size_t cs_count() const { return cs_count_; }
  // Member i in serve order, and the segment it is served in.
  Member& operator[](std::size_t i) { return members_[index(i)]; }
  const Member& operator[](std::size_t i) const { return members_[index(i)]; }
  Segment segment(std::size_t i) const {
    return i < cs_count_ ? Segment::kCritical : Segment::kLockFree;
  }

 private:
  // Critical-section members fill the array from the front and deferred
  // gets from the back, so each route keeps pop order in one array.
  std::size_t index(std::size_t i) const {
    return i < cs_count_ ? i : kMaxBatch - 1 - (i - cs_count_);
  }
  void add(const Request& req, Nanos now) {
    const bool deferred = lock_free_gets_ && req.op == OpType::kGet;
    Member& m = members_[deferred ? kMaxBatch - 1 - deferred_count_++
                                  : cs_count_++];
    m = Member{req, now > req.enqueue_ns ? now - req.enqueue_ns : 0, 0};
  }

  std::size_t limit_;
  bool lock_free_gets_;
  std::size_t cs_count_ = 0;
  std::size_t deferred_count_ = 0;
  Member members_[kMaxBatch];
};

class ServiceCore {
 public:
  // Which store slot a worker records into: its own (the real path — one
  // writer per slot) or its core type's (the single-threaded twin: slot 0
  // for every big worker, slot 1 for every little one).
  enum class Slots { kPerWorker, kPerCoreType };

  // One class's resolved policy. Submitters bump the admission counters;
  // their own line keeps the load generator off the spec words workers
  // read.
  struct ClassState {
    RequestClass spec;
    int epoch_id = -1;  // EpochRegistry id (real path); -1 on the twin
    std::size_t depth_limit = 0;  // shed_threshold(spec.admission, capacity)
    WindowController::Config controller;  // seed_config_for_slo when slo > 0
    alignas(kCacheLine) std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};  // all bounces (shed included)
    std::atomic<std::uint64_t> shed{0};      // watermark bounces only
  };

  ServiceCore(KvServiceConfig config, Slots slots);
  ~ServiceCore();
  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  const KvServiceConfig& config() const { return config_; }
  const db::CostProfile& cost() const { return cost_; }
  KvAccounting& accounting() { return accounting_; }
  const KvAccounting& accounting() const { return accounting_; }
  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(classes_.size());
  }
  ClassState& class_state(std::uint32_t c) { return *classes_[c]; }
  const ClassState& class_state(std::uint32_t c) const { return *classes_[c]; }
  const std::vector<WorkerSpec>& workers() const { return workers_; }
  std::uint32_t shard_of(std::uint64_t key) const {
    return shard_for_key(key, config_.num_shards);
  }
  BoundedQueue<Request>& queue(std::uint32_t shard) { return *queues_[shard]; }
  const BoundedQueue<Request>& queue(std::uint32_t shard) const {
    return *queues_[shard];
  }
  // Closes every shard queue: pushes fail, pops drain what remains.
  void close();

  // Admission: pushes `req` into `shard`'s queue below its class's depth
  // limit, counts the outcome (a shed counts as rejected and shed, a full
  // queue as rejected only), hands it to the attached recorder, and
  // returns it. `req.class_index` must be valid.
  TraceDecision admit(const Request& req, std::uint32_t shard);
  // Trace hooks (DESIGN.md §10): admit() records every arrival, and
  // record_batch() one locked batch. Not owned; null detaches.
  void set_recorder(TraceRecorder* recorder) {
    recorder_.store(recorder, std::memory_order_relaxed);
  }
  void record_batch(std::uint32_t shard, std::size_t size);

  // An empty batch under this config's batch_k and route rule.
  Batch batch() const { return Batch(config_.batch_k, cost_.get_lock_free); }
  // The pricing rule: a critical-section or off-lock segment costs its
  // op's cs_nops — at CS speed only inside the lock — and the post-op
  // segment its op's post_nops at non-CS speed.
  Price price(OpType op, Segment segment) const {
    const db::OpCost& c = cost_.op(op == OpType::kPut);
    return segment == Segment::kPost ? Price{c.post_nops, false}
                                     : Price{c.cs_nops,
                                             segment == Segment::kCritical};
  }
  // Records one served member, done at `done`, into `worker`'s slot and
  // returns its end-to-end latency — what the clock feeds its controller.
  Nanos complete(const WorkerSpec& worker, const Batch::Member& member,
                 Nanos done) {
    const Nanos total =
        done > member.req.enqueue_ns ? done - member.req.enqueue_ns : 0;
    accounting_.complete(worker.slot, member.req.class_index, total,
                         member.wait);
    return total;
  }

  // Class c's admission counters (shed read before rejected, so a racing
  // snapshot undercounts shed rather than overcounting it).
  AdmissionCounts admitted(std::uint32_t c) const;
  // Every class's report, folded from the store and the admission
  // counters. Safe at any time; exact once the workers quiesce.
  ServiceReport report() const;

  // Live telemetry over this core (DESIGN.md §11): null unless
  // config.telemetry.enabled. Each clock drives its fold_tick.
  KvTelemetry* telemetry() { return telemetry_.get(); }
  const KvTelemetry* telemetry() const { return telemetry_.get(); }

 private:
  KvServiceConfig config_;
  db::CostProfile cost_;  // resolved_cost_profile(config_)
  KvAccounting accounting_;
  std::vector<std::unique_ptr<BoundedQueue<Request>>> queues_;
  std::vector<std::unique_ptr<ClassState>> classes_;
  std::vector<WorkerSpec> workers_;
  // Atomic so set_recorder can race benignly with in-flight traffic;
  // callers attach before traffic for a complete recording.
  std::atomic<TraceRecorder*> recorder_{nullptr};
  std::unique_ptr<KvTelemetry> telemetry_;
};

}  // namespace asl::server
