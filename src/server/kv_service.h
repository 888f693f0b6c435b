// Sharded KV front-end — the open-loop service layer over the asl_db
// engines (DESIGN.md §4), on threads and the wall clock.
//
// Layout: N shards, each one KvEngine (hash/btree/lsm/mvcc, selected by
// KvServiceConfig::engine — DESIGN.md §7) guarded by a BlockingAslMutex
// (the oversubscription-safe LibASL lock) behind a bounded request queue.
// Worker threads declare big/little core types through the topology oracle
// and pin themselves like the paper's evaluation harness.
//
// The policy — admission, batch formation, the get/put route split,
// pricing, accounting — is the ServiceCore kernel (service_core.h), which
// the simulated twin runs too. This file supplies the real clock's
// machinery: worker threads, the shard BlockingAslMutex, the wall clock,
// engine calls, and EpochRegistry epochs. Every request class is a named
// epoch, so the controller of a class is fed the *end-to-end* latency
// (queue wait + service) of each request of it: under overload, queueing
// delay violates the SLO, the window collapses, and little-core workers
// stop standing by — the service-level version of the paper's feedback
// loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string_view>
#include <thread>
#include <vector>

#include "asl/libasl.h"
#include "db/engine.h"
#include "platform/cacheline.h"
#include "server/service_core.h"

namespace asl::obs {
class Sampler;  // obs/sampler.h
}  // namespace asl::obs

namespace asl::server {

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

// How long an idle worker polls its shard queue before it parks
// (BoundedQueue::pop), when it owns its CPU. 200 µs covers several mean
// arrival gaps at the benchmark's fixed rates (20 µs on a single hash
// queue, ~75 µs per mvcc shard), so a steady stream reaches a spinning
// worker without a futex wake, and an idle service still parks within
// 0.2 ms.
inline constexpr Nanos kPopSpin = 200 * kNanosPerMicro;

// The ownership rule (DESIGN.md §4): a worker spins before it parks only
// when its pin succeeded and the service has fewer workers than the CPUs in
// the process's affinity mask. Each worker then owns its CPU and one CPU is
// left for submitters. Every other worker parks at once (budget 0): a spin
// on a shared CPU takes its time from the worker or submitter beside it.
constexpr Nanos pop_spin_budget(bool pinned, std::uint32_t workers,
                                std::uint32_t allowed_cpus) {
  return pinned && workers < allowed_cpus ? kPopSpin : 0;
}

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
  std::uint32_t shard_of(std::uint64_t key) const {
    return core_.shard_of(key);
  }

  // Open-loop admission (ServiceCore::admit): non-blocking; false =
  // rejected (queue full, class watermark hit, or service stopped). The
  // enqueue timestamp is taken here. An out-of-range class_index is a
  // caller bug: it returns false without counting a per-class rejection
  // (there is no class to attribute it to), so callers validate indices up
  // front (run_open_loop does).
  bool try_submit(OpType op, std::uint64_t key, std::uint32_t class_index);

  // Number of configured request classes (>= 1: an empty config gets a
  // default no-SLO class at construction).
  std::uint32_t num_classes() const { return core_.num_classes(); }
  // The EpochRegistry id backing class_index's epoch, or -1 when the index
  // is out of range. Valid ids are stable for the service's lifetime.
  int epoch_id(std::uint32_t class_index) const;
  // Instantaneous depth of one shard's queue (0 for an out-of-range shard).
  // A point-in-time read: concurrent submits/drains may move it immediately.
  std::size_t queue_depth(std::uint32_t shard) const;
  // Total keys stored across all shard engines (prefill + completed puts).
  std::size_t store_size() const;
  // The effective configuration after clamped_config().
  const KvServiceConfig& config() const { return core_.config(); }

  // Per-class snapshot (ServiceCore::report). Lock-free and safe at any
  // time; after stop() it is quiescent and satisfies completed == accepted
  // per class.
  ServiceReport report() const { return core_.report(); }

  // Route accounting (see LockRouteStats), folded from the same store. On a
  // get_lock_free profile get_route_acquires stays 0 and cs_gets stays 0 —
  // every get is served off-lock.
  LockRouteStats lock_route_stats() const {
    return core_.accounting().routes();
  }

  // Attach a trace recorder (workload/trace.h, DESIGN.md §10): every
  // subsequent try_submit's admission decision + shard route and every
  // drained batch's size are captured into it. Not owned — it must outlive
  // the traffic it records; pass nullptr to detach. Real-path recording is
  // accounting-faithful, not byte-deterministic: concurrent submitters
  // append in whatever order they win the recorder's lock, so the record
  // stream's interleaving (unlike its per-class/per-shard totals) can
  // differ run to run.
  void set_recorder(TraceRecorder* recorder) { core_.set_recorder(recorder); }

  // Live telemetry (DESIGN.md §11): null unless config.telemetry.enabled.
  // The time-series log and span rings are safe to read once stop() has
  // returned (the sampler's final tick and the worker joins both precede
  // it); mid-run reads see a racing-but-valid snapshot.
  const KvTelemetry* telemetry() const { return core_.telemetry(); }
  // Wall-clock origin of the telemetry time axis (start() instant) — the
  // epoch write_chrome_trace rebases span timestamps against.
  Nanos telemetry_epoch_ns() const { return telemetry_start_ns_; }

 private:
  // Cache-line discipline (DESIGN.md §9): the shard lock starts a fresh
  // line, away from the shard's queue (the core's, with its own padded
  // lock group), so a submitter hammering the queue lock never bounces the
  // line a worker is spinning on for the shard mutex. The engine pointer
  // rides after the lock — it is read-only once constructed.
  struct Shard {
    explicit Shard(std::unique_ptr<db::KvEngine> eng)
        : engine(std::move(eng)) {}
    alignas(kCacheLine) BlockingAslMutex lock;  // serializes shard workers
    std::unique_ptr<db::KvEngine> engine;
  };

  void worker_loop(const WorkerSpec& worker);
  // Blocking-pop/batch/serve loop shared by worker threads and the inline
  // drain in stop(); returns when the shard queue is closed and empty.
  // Each pop spins for up to `pop_spin` before it parks. Owns the worker's
  // ValueArena and Batch for its whole run.
  void drain_queue(const WorkerSpec& worker, Nanos pop_spin);
  // Serves one batch (DESIGN.md §6): the head's lock acquisition under its
  // class epoch, the kernel's extension and route split, one serve pass
  // that releases the lock after the last critical-section member, then
  // per-request accounting and controller feedback. Put values are
  // formatted into `arena` (the head's before the acquisition); the arena
  // is recycled before return.
  void serve_batch(const WorkerSpec& worker, const Request& head,
                   Batch& batch, ValueArena& arena);

  ServiceCore core_;  // policy, queues, accounting, telemetry
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  // Lifecycle: transitions (spawn/join, the flags) serialize on
  // lifecycle_lock_, so concurrent start()/stop() from different threads
  // compose instead of racing on the worker vector; the flags themselves
  // are atomic so diagnostic reads never need the lock. Workers never take
  // lifecycle_lock_, so joining under it cannot deadlock.
  mutable PthreadLock lifecycle_lock_;
  std::atomic<bool> running_{false};   // guarded by lifecycle_lock_ (writes)
  std::atomic<bool> stopped_{false};
  // Telemetry sampler (null when disabled). It starts after the workers
  // spawn and stops after they join — its final tick is the one sample
  // guaranteed to observe drained queues and final counters.
  std::unique_ptr<obs::Sampler> sampler_;
  Nanos telemetry_start_ns_ = 0;
};

}  // namespace asl::server
