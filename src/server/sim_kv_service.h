// SimKvService — the deterministic twin of the real KV service (DESIGN.md
// §5).
//
// The real service (kv_service.h) can only be *accounted* in CI: wall-clock
// latency on a noisy runner is not assertable. The twin runs the same
// shard/queue/admission semantics on the discrete-event engine (src/sim/),
// with service costs drawn from the AMP machine model (sim/core_model.h), so
// every scenario produces one byte-reproducible measured table — queueing
// shapes (latency vs offered load, rejection onset, hot-shard skew) become
// regression-testable facts instead of wall-clock luck.
//
// Fidelity contract (what the twin models vs elides) is written out in
// DESIGN.md §5; the short version:
//   * modeled: shard routing (shard_for_key), bounded-queue admission with
//     counted rejections, class-aware shedding at the same shed_threshold
//     depths as the real queue (sheds counted per class and per shard),
//     batch_k drain — one simulated lock handoff per batch, per-op engine
//     cost per request, acquisition window from the head request's class —
//     big/little worker slots (same assignment rule as KvService), the
//     shard lock as the simulated Bench-6 substrate
//     (LockKind::kBlockingReorderable by default), ASL dispatch + AIMD
//     feedback via the production DispatchPolicy/WindowController driven by
//     virtual end-to-end latencies (per batch member, at the end of its own
//     critical-section segment), the lock-free get route (a get_lock_free
//     profile serves gets with no lock acquisition at all — service time is
//     the get class's cs_nops under the *non*-CS slowdown, the twin of the
//     real worker's off-lock scale_ncs spin; puts in a mixed batch run
//     first, inside the CS, with the deferred gets following the release in
//     pop order — DESIGN.md §8), and the drain-on-stop invariant
//     (completed == accepted).
//   * elided: the engine's data structures (no keys are stored; service
//     cost is the engine's per-op CostProfile — resolved_cost_profile, the
//     same classes the real worker spins — under the machine model's
//     big/little slowdowns, DESIGN.md §7), the EpochRegistry (the twin
//     drives the
//     controller/dispatch classes directly, like sim_runner does), OS
//     scheduling of generator threads (arrivals fire exactly on schedule),
//     and worker wake ordering (the lowest-index idle worker of a shard
//     serves next; the real pop order is OS-dependent).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/timeseries_log.h"
#include "server/kv_service.h"
#include "server/scenarios.h"
#include "sim/core_model.h"
#include "sim/sim_lock.h"
#include "stats/table.h"
#include "workload/open_loop.h"
#include "workload/trace.h"

namespace asl::server {

// Twin-only knobs: the machine model supplying service-cost asymmetry and
// lock-handover costs, plus the NOP calibration tying the resolved per-op
// CostProfile's classes to virtual time.
struct SimTwinConfig {
  sim::MachineParams machine{};
  // Shard-lock model. The real service uses BlockingAslMutex (Bench-6), so
  // the blocking reorderable simulated lock is the faithful default.
  sim::LockKind lock = sim::LockKind::kBlockingReorderable;
  // Virtual ns per emulated NOP on a big core (experiment.h's "1 NOP ~
  // 0.4 ns" calibration); little cores stretch by the machine slowdowns.
  double nop_ns = 0.4;
  // Seeds the simulated lock's tie-breaking randomness (barge races, grant
  // penalties) — part of the twin's deterministic identity.
  std::uint64_t seed = 42;
};

// Per-shard queueing statistics — the observable the hot-shard-skew shape
// tests assert on. depth_integral is the time integral of the queue depth
// (ns · waiting requests): divided by the run length it is the mean depth,
// and its spread across shards exposes zipfian hot shards. `shed` is the
// subset of `rejected` bounced by a class watermark rather than a full
// queue (kv_service.h AdmissionPolicy), localizing which shards ran hot
// enough to trigger shedding.
struct SimShardStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t depth_integral = 0;
};

// Everything one twin run measures. Conservation on return from run():
// offered == total_accepted() + total_rejected() and total_completed() ==
// total_accepted(), exactly — the twin's drain is unconditional.
struct SimServiceReport {
  // Same per-class shape as the real path (ClassReport latencies are virtual
  // ns here; epoch_id is -1 — the twin does not touch the global registry).
  ServiceReport service;
  std::vector<SimShardStats> shards;
  std::uint64_t offered = 0;  // scheduled arrivals across every LoadSpec
  Nanos horizon = 0;     // arrival window
  Nanos drained_at = 0;  // virtual time the last queued request finished
  // Route accounting (kv_service.h LockRouteStats): on a get_lock_free
  // profile the twin, like the real path, serves every get without a
  // simulated lock acquisition — get_route_acquires == 0 and cs_gets == 0
  // is the assertable twin half of the lock-free contract (DESIGN.md §8).
  LockRouteStats lock_routes;
  // Telemetry time series sampled in virtual time (DESIGN.md §11): the same
  // schema KvTelemetry emits on the real path, one tick per
  // telemetry.sample_period_ns over the horizon plus one final tick at the
  // drain instant. Empty unless config.telemetry.enabled. Byte-deterministic
  // like every other twin observable — sim_kv_telemetry_table is goldenable.
  obs::TimeSeriesLog telemetry;

  std::uint64_t total_accepted() const { return service.total_accepted(); }
  std::uint64_t total_rejected() const { return service.total_rejected(); }
  std::uint64_t total_completed() const { return service.total_completed(); }
};

// A trace replayed through a fresh twin (DESIGN.md §10). The divergence
// counters compare each record's *live* re-decision against what the
// recording captured: replaying under the recorded config they are all
// zero (same admission state machine, same event order — that is the
// byte-determinism contract the golden trace test pins); replaying under a
// changed config (the A/B harness) they measure exactly how many requests
// the policy change re-decided. Counters and tables always reflect the
// live decisions, never the recorded ones.
struct SimReplayReport {
  SimServiceReport report;
  std::uint64_t decision_divergence = 0;  // live admit/shed/reject differed
  std::uint64_t shard_divergence = 0;     // live route differed (config change)
  std::uint64_t skipped = 0;  // records aimed at classes this config lacks

  // True when the replay re-took every recorded decision identically.
  bool exact() const {
    return decision_divergence == 0 && shard_divergence == 0 && skipped == 0;
  }
};

class SimKvService {
 public:
  explicit SimKvService(KvServiceConfig config, SimTwinConfig twin = {});
  ~SimKvService();
  SimKvService(const SimKvService&) = delete;
  SimKvService& operator=(const SimKvService&) = delete;

  // Replays every spec's offered schedule (the same generate_trace the real
  // generator replays) over [0, horizon) virtual ns, then drains: on return
  // completed == accepted per class, exactly. Single-shot — one run per
  // instance, like one start()/stop() cycle of the real service.
  SimServiceReport run(const std::vector<LoadSpec>& load, Nanos horizon);

  // Feeds a recorded trace's offered stream back through the twin instead
  // of generating one. Records are scheduled in recorded order, which is
  // the original run's processing order — the engine executes events by
  // (time, insertion) order, so the replayed event sequence, and therefore
  // the measured/shard tables, are byte-identical to the recording run's
  // when the config and twin seed match. Single-shot, like run().
  SimReplayReport replay(const RecordedTrace& trace);

  // Attach a recorder before run()/replay(): every arrival's admission
  // decision + shard route and every lock acquisition's batch size are
  // captured. Not owned; must outlive the run. The twin is single-threaded,
  // so recorded order is exactly virtual processing order.
  void record_to(TraceRecorder* recorder);

  // Identical mapping to KvService::shard_of (shared shard_for_key rule).
  std::uint32_t shard_of(std::uint64_t key) const;

  // The effective configuration after clamped_config(), as on KvService.
  const KvServiceConfig& config() const;

 private:
  struct Impl;
  Impl* impl_;
};

// Convenience: the twin of a whole scenario (service config + load +
// horizon), as registered in server/scenarios.*.
SimServiceReport run_sim_kv(const KvScenario& scenario,
                            const SimTwinConfig& twin = {});

// Records one twin run of `scenario`: runs it with a recorder attached and
// returns the finished trace (meta filled from the scenario + twin,
// seed provenance from the load specs). The run's own report lands in
// `*report_out` when non-null — its tables are the byte-identity reference
// a replay of the returned trace must reproduce.
RecordedTrace record_sim_kv(const KvScenario& scenario,
                            const SimTwinConfig& twin = {},
                            SimServiceReport* report_out = nullptr);

// Replays a recorded trace through a fresh twin under `config` — the
// recording's config for determinism checks, a deliberately changed one
// for policy A/Bs. Pass the trace's own twin_seed (in `twin`) to reproduce
// the recorded lock randomness.
SimReplayReport replay_sim_kv(const RecordedTrace& trace,
                              const KvServiceConfig& config,
                              const SimTwinConfig& twin = {});

// A twin report's accounting in the trace's shape (class/shard totals +
// route counters; the batch histogram lives only in recordings) — the
// right-hand side of accounting_counts_match against a trace's recorded
// accounting.
TraceAccounting sim_trace_accounting(const SimServiceReport& report);

// Byte-reproducible tables (all-integer cells, virtual ns): the measured
// per-class table the determinism/golden tests compare, and the per-shard
// depth table the skew tests read.
Table sim_kv_measured_table(const SimServiceReport& report);
Table sim_kv_shard_table(const SimServiceReport& report);
// The twin's telemetry time series as the long-form {series, t_ns, value}
// table (empty when telemetry was disabled) — the golden-checked CSV shape.
Table sim_kv_telemetry_table(const SimServiceReport& report);

}  // namespace asl::server
