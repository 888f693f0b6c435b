// Sharded KV front-end — the open-loop service layer over the asl_db
// engines (DESIGN.md §4).
//
// Layout: N shards, each one KvEngine (hash/btree/lsm/mvcc, selected by
// KvServiceConfig::engine — DESIGN.md §7) guarded by a BlockingAslMutex
// (the oversubscription-safe LibASL lock) behind a bounded request queue.
// Requests are routed by key hash, admitted with backpressure (a full queue
// rejects, it never blocks the submitter), and served by worker threads
// that declare big/little core types through the topology oracle and pin
// themselves like the paper's evaluation harness.
//
// Every request carries a *request class*: a named epoch registered with
// the EpochRegistry, so different classes (point lookups vs writes, say)
// adapt their reorder windows against different SLOs. The worker wraps the
// shard critical section in epoch_start / epoch_end_with_latency and feeds
// the controller the *end-to-end* latency (queue wait + service): under
// overload, queueing delay violates the SLO, the window collapses, and
// little-core workers stop standing by — the service-level version of the
// paper's feedback loop.
//
// Lock-free read route (DESIGN.md §8): when the resolved CostProfile sets
// get_lock_free (the mvcc engine), gets bypass the shard lock entirely —
// the engine's snapshot reads are wait-free against writers, so the worker
// serves them off-lock at non-CS speed while only puts acquire the mutex.
// LockRouteStats counts which route served what on both the real path and
// the twin.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "asl/libasl.h"
#include "db/engine.h"
#include "obs/metrics.h"
#include "platform/cacheline.h"
#include "platform/rng.h"
#include "server/request_queue.h"
#include "stats/histogram.h"
#include "stats/latency_split.h"
#include "workload/cs_workload.h"

namespace asl::obs {
class Sampler;  // obs/sampler.h
}  // namespace asl::obs

namespace asl::server {

class KvTelemetry;  // server/telemetry.h

// The two engine operations a request can carry: kGet reads the key (a
// miss is not an error — unprefilled keys simply return nothing), kPut
// upserts a value derived from the key. Both run inside the shard lock.
enum class OpType : std::uint8_t { kGet = 0, kPut = 1 };

// Key -> shard mapping, shared by the real service and its simulated twin
// (sim_kv_service.h) so both route identically: splitmix64 decorrelates
// shard choice from key order, spreading zipfian-hot ranks and sequential
// prefills alike over the shards.
inline std::uint32_t shard_for_key(std::uint64_t key,
                                   std::uint32_t num_shards) {
  std::uint64_t h = key;
  return static_cast<std::uint32_t>(splitmix64(h) % num_shards);
}

// Upper bound on batch_k both paths enforce: a worker never carries more
// than this many requests through one lock acquisition (the real path's
// batch scratch space is a fixed stack array, and unbounded batches would
// starve the other worker of a shard anyway).
inline constexpr std::size_t kMaxBatch = 64;

// One queued request. `class_index` is the dense index into the configured
// request classes (each of which owns a registered epoch id). A fixed-size
// value type on purpose: the shard queues are preallocated rings of these,
// so admission moves 24 bytes and never touches the heap (DESIGN.md §9).
struct Request {
  OpType op = OpType::kGet;
  std::uint64_t key = 0;
  std::uint32_t class_index = 0;
  Nanos enqueue_ns = 0;
};

// Per-worker value arena (DESIGN.md §9). Puts format their value bytes into
// this fixed monotonic buffer *before* entering the critical section; the
// engines consume them as string_views and copy into their own storage, so
// the slots recycle every batch. Two guarantees by construction:
//   * zero heap traffic — the upstream is the null resource, so an arena
//     that would ever spill past its fixed buffer throws bad_alloc instead
//     of silently allocating (and the sizing makes that unreachable: at
//     most kMaxBatch values of kSlotBytes each per batch);
//   * no sharing — each worker thread owns one arena on its drain-loop
//     stack. "Per shard" would race: with two workers per shard, both
//     format values for the same shard concurrently outside the lock.
class ValueArena {
 public:
  // "v:" + at most 20 decimal digits + nul, rounded up: one slot per batch
  // member, kMaxBatch slots per batch.
  static constexpr std::size_t kSlotBytes = 32;

  ValueArena()
      : resource_(buffer_, sizeof(buffer_), std::pmr::null_memory_resource()) {}
  ValueArena(const ValueArena&) = delete;
  ValueArena& operator=(const ValueArena&) = delete;

  // Formats the service's value representation of `key` ("v:<key>") into an
  // arena slot. The view stays valid until the next release().
  std::string_view format_value(std::uint64_t key);

  // Recycles every slot (end of batch). O(1): a monotonic resource resets
  // its cursor to the start of the fixed buffer it was constructed over.
  void release() { resource_.release(); }

 private:
  alignas(kCacheLine) char buffer_[kMaxBatch * kSlotBytes];
  std::pmr::monotonic_buffer_resource resource_;
};

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
// shed_threshold() is that formula, shared by the real service and the twin
// so both shed at exactly the same depths. Shed rejections are counted per
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

// Construction-time clamping, shared by KvService and the twin: shard, worker
// and queue minimums of 1, batch_k in [1, kMaxBatch], a default class.
KvServiceConfig clamped_config(KvServiceConfig config);

// How many of the num_shards * workers_per_shard workers are big: the first
// big_workers of them (~0u = half, rounded up). Shared with the twin.
std::uint32_t big_worker_count(const KvServiceConfig& config);

// The per-op cost classes `config` actually runs with: the explicit profile
// when set, otherwise the engine's checked-in default, either one scaled by
// cost_scale. Aborts (with kv_engine_error's message) when the profile must
// come from the registry but the engine name is unknown — the same rule
// KvService applies at construction, shared here so the simulated twin
// resolves identical numbers.
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

class TraceRecorder;  // workload/trace.h

class KvService {
 public:
  explicit KvService(KvServiceConfig config);
  ~KvService();
  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // Spawns the worker pool. Idempotent; requests submitted before start()
  // sit in the shard queues (server_test uses this to fill a queue).
  void start();

  // Closes the queues, lets the workers drain every accepted request, and
  // joins them. After stop(), completed == accepted per class. Idempotent.
  void stop();

  // Key -> shard routing (hash-striped so skewed key popularity still
  // spreads over shards). Exposed for the routing tests.
  std::uint32_t shard_of(std::uint64_t key) const;

  // Open-loop admission: non-blocking; false = rejected (queue full,
  // class watermark hit, or service stopped). The enqueue timestamp is
  // taken here. Sheddable classes are rejected once their shard queue's
  // depth reaches shed_threshold(class.admission, queue_capacity); such
  // rejections count in both `rejected` and `shed` for the class. An
  // out-of-range class_index is a caller bug: it returns false without
  // counting a per-class rejection (there is no class to attribute it to),
  // so callers validate indices up front (run_open_loop does).
  bool try_submit(OpType op, std::uint64_t key, std::uint32_t class_index);

  // Number of configured request classes (>= 1: an empty config gets a
  // default no-SLO class at construction).
  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(config_.classes.size());
  }
  // The EpochRegistry id backing class_index's epoch, or -1 when the index
  // is out of range. Valid ids are stable for the service's lifetime.
  int epoch_id(std::uint32_t class_index) const;
  // Instantaneous depth of one shard's queue (0 for an out-of-range shard).
  // A point-in-time read: concurrent submits/drains may move it immediately.
  std::size_t queue_depth(std::uint32_t shard) const;
  // Total keys stored across all shard engines (prefill + completed puts).
  std::size_t store_size() const;
  // The effective configuration after clamped_config().
  const KvServiceConfig& config() const { return config_; }

  // Per-class snapshot, folded from the accounting store and the admission
  // counters. Lock-free and safe at any time; after stop() it is quiescent
  // and satisfies completed == accepted per class.
  ServiceReport report() const;

  // Route accounting (see LockRouteStats), folded from the same store. On a
  // get_lock_free profile get_route_acquires stays 0 and cs_gets stays 0 —
  // every get is served off-lock.
  LockRouteStats lock_route_stats() const { return accounting_.routes(); }

  // Attach a trace recorder (workload/trace.h, DESIGN.md §10): every
  // subsequent try_submit's admission decision + shard route and every
  // drained batch's size are captured into it. Not owned — it must outlive
  // the traffic it records; pass nullptr to detach. Real-path recording is
  // accounting-faithful, not byte-deterministic: concurrent submitters
  // append in whatever order they win the recorder's lock, so the record
  // stream's interleaving (unlike its per-class/per-shard totals) can
  // differ run to run.
  void set_recorder(TraceRecorder* recorder);

  // Live telemetry (DESIGN.md §11): null unless config.telemetry.enabled.
  // The time-series log and span rings are safe to read once stop() has
  // returned (the sampler's final tick and the worker joins both precede
  // it); mid-run reads see a racing-but-valid snapshot.
  const KvTelemetry* telemetry() const { return telemetry_.get(); }
  // Wall-clock origin of the telemetry time axis (start() instant) — the
  // epoch write_chrome_trace rebases span timestamps against.
  Nanos telemetry_epoch_ns() const { return telemetry_start_ns_; }

 private:
  // Cache-line discipline inside the shard (DESIGN.md §9): the queue ends
  // with its own padded lock group, and the shard lock starts a fresh line,
  // so a submitter hammering the queue lock never bounces the line a worker
  // is spinning on for the shard mutex. The engine pointer rides after the
  // lock — it is read-only once constructed.
  struct Shard {
    Shard(std::size_t queue_capacity, std::unique_ptr<db::KvEngine> eng)
        : queue(queue_capacity), engine(std::move(eng)) {}
    BoundedQueue<Request> queue;
    alignas(kCacheLine) BlockingAslMutex lock;  // serializes shard workers
    std::unique_ptr<db::KvEngine> engine;
  };

  // Submitters bump the admission counters; their own line keeps the load
  // generator off the spec words workers read.
  struct ClassState {
    RequestClass spec;
    int epoch_id = -1;
    std::size_t depth_limit = 0;  // shed_threshold(spec.admission, capacity)
    alignas(kCacheLine) std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};  // all bounces (shed included)
    std::atomic<std::uint64_t> shed{0};      // watermark bounces only
  };

  // Read-only per-worker configuration, one private line each: slots_ is a
  // contiguous vector every worker indexes in its hot loop, and padding
  // them means a future mutable field cannot silently put two workers'
  // state on one line.
  struct alignas(kCacheLine) WorkerSlot {
    std::uint32_t index = 0;
    std::uint32_t shard = 0;
    CoreType type = CoreType::kBig;
    SpeedFactors speed{};
  };

  void worker_loop(const WorkerSlot& slot);
  // Blocking-pop/batch/serve loop shared by worker threads and the inline
  // drain in stop(); returns when the shard queue is closed and empty.
  // Owns the worker's ValueArena for its whole run.
  void drain_queue(const WorkerSlot& slot);
  // One lock acquisition for `head` plus up to batch_k-1 already-waiting
  // requests drained after the acquisition, executed back-to-back in the
  // critical section, then per-request latency recording + controller
  // feedback (DESIGN.md §6). Put values are formatted into `arena` (the
  // head's before the acquisition); the arena is recycled before return.
  void serve_batch(const WorkerSlot& slot, const Request& head,
                   ValueArena& arena);
  // One sampler fold: snapshots the admission counters and queue depths
  // into the telemetry layer's scratch, which folds the rest from
  // accounting_. Allocation-free (kv_alloc_audit runs telemetry-on).
  void telemetry_tick(Nanos now);

  KvServiceConfig config_;
  db::CostProfile cost_;  // resolved_cost_profile(config_), fixed at build
  // Trace recorder hook (null = not recording). Atomic so set_recorder can
  // race benignly with in-flight submits/workers; callers attach before
  // traffic for a complete recording.
  std::atomic<TraceRecorder*> recorder_{nullptr};
  // The one accounting store: worker w records into slot w.
  KvAccounting accounting_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ClassState>> classes_;
  std::vector<WorkerSlot> slots_;
  std::vector<std::thread> workers_;
  // Lifecycle: transitions (spawn/join, the flags) serialize on
  // lifecycle_lock_, so concurrent start()/stop() from different threads
  // compose instead of racing on the worker vector; the flags themselves
  // are atomic so diagnostic reads never need the lock. Workers never take
  // lifecycle_lock_, so joining under it cannot deadlock.
  mutable PthreadLock lifecycle_lock_;
  std::atomic<bool> running_{false};   // guarded by lifecycle_lock_ (writes)
  std::atomic<bool> stopped_{false};
  // Telemetry (null when disabled). The sampler starts after the workers
  // spawn and stops after they join — its final tick is the one sample
  // guaranteed to observe drained queues and final counters.
  std::unique_ptr<KvTelemetry> telemetry_;
  std::unique_ptr<obs::Sampler> sampler_;
  Nanos telemetry_start_ns_ = 0;
};

}  // namespace asl::server
