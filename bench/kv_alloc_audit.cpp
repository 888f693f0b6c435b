// kv_alloc_audit — the zero-allocation regression gate (DESIGN.md §9).
//
// The request hot path is contractually heap-free once warm: admission moves
// a 24-byte Request through a preallocated ring, puts format values into a
// per-worker arena, the pooled engines (hash via capacity-reusing assigns,
// mvcc via its node freelist) recycle their own storage. This scenario is
// the gate that keeps it true. For each engine under the contract it runs
// the *real* service — worker threads, shard locks, epoch feedback, the
// lot — through a warmup window (which may allocate: rings, engine growth,
// epoch slots, freelist population) and then a steady window, and asserts
// the process-wide operator-new count moved by exactly zero during steady
// traffic. One surviving `new` per request fails the bench, which fails CI.
//
// The counter is the asl_alloc interposer (asl/alloc_count.h), linked into
// every figure binary; the submit loop below is itself allocation-free
// (try_submit + yield), so the whole process quiesces to zero.
#include <chrono>
#include <string>
#include <thread>

#include "asl/alloc_count.h"
#include "bench_common.h"
#include "platform/rng.h"
#include "server/kv_service.h"
#include "server/telemetry.h"

namespace asl::bench {
namespace {

using server::KvService;
using server::KvServiceConfig;
using server::OpType;

// Engines under the zero-allocation contract. Btree joined in PR 9: with
// the keyspace prefilled, steady-state puts are in-place value overwrites
// (capacity-reusing assign) and node splits are amortized into warmup, so
// the audited windows are allocation-free. Not "lsm": its per-op
// allocations (memtable entries, snapshot vectors) are structural — the
// lsm CostProfile's calibrated times include them instead (DESIGN.md §7/§9).
const char* const kAuditedEngines[] = {"hash", "btree", "mvcc"};

// With --telemetry=on the audited service also runs the full observation
// pipeline (DESIGN.md §11): a live 1 ms sampler folding the metrics
// registry plus 1-in-64 span tracing. The zero-allocation bar is unchanged —
// wait-free recording and preallocated fold scratch are part of the
// telemetry contract, and this mode is the gate that keeps them true.
KvServiceConfig audit_config(const std::string& engine, bool telemetry_on) {
  KvServiceConfig cfg;
  cfg.engine = engine;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 2;  // a big/little pair contending per shard
  cfg.queue_capacity = 64;
  cfg.batch_k = 8;
  // Keys stay inside the prefill range so steady-state puts are overwrites
  // (an insert of a brand-new key legitimately grows the engine).
  cfg.prefill_keys = 512;
  cfg.classes.push_back(
      server::RequestClass{"audit", /*slo_ns=*/2 * kNanosPerMilli});
  if (telemetry_on) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.sample_period_ns = 1 * kNanosPerMilli;
    cfg.telemetry.span_sample_every = 64;
    cfg.telemetry.span_ring_capacity = 512;
  }
  return cfg;
}

// Submits `n` requests (1 put per 4 ops, keys uniform over the prefill
// range), retrying rejected submits after a yield — backpressure pacing
// with no sleeps, no clocks beyond try_submit's own stamp, and no heap.
void pump(KvService& service, Rng& rng, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const OpType op = (i % 4 == 0) ? OpType::kPut : OpType::kGet;
    const std::uint64_t key = rng.below(512);
    while (!service.try_submit(op, key, 0)) {
      std::this_thread::yield();
    }
  }
}

// Waits until every shard queue reads empty, then grants the workers a
// grace interval to finish the in-flight batch (queue depth hits zero when
// the last request is *claimed*, not when it is served). Polling
// queue_depth takes the queue lock only — no allocation inside the
// measured window, unlike report().
void quiesce(KvService& service) {
  for (std::uint32_t s = 0; s < service.config().num_shards; ++s) {
    while (service.queue_depth(s) != 0) {
      std::this_thread::yield();
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

void run_alloc_audit(ScenarioContext& ctx) {
  const bool telemetry_on = ctx.option("telemetry") == "on";
  ctx.banner("kv_alloc_audit",
             "steady-state heap allocations per request (must be zero)");
  ctx.note(telemetry_on
               ? "telemetry ON: live sampler + span tracing inside the "
                 "audited windows"
               : "telemetry off (pass --telemetry=on to audit the "
                 "observation pipeline too)");
  ctx.shape_check(alloc_counting_linked(),
                  "allocation-counting hooks are linked into this binary");
  // Liveness probe: a deliberate allocation must move the counter, so a
  // zero steady-state reading below can never be a silently dead gate.
  const std::uint64_t probe_before = alloc_count();
  {
    char* volatile probe = new char[64];
    delete[] probe;
  }
  ctx.shape_check(alloc_count() > probe_before,
                  "counter observes a deliberate allocation");

  const std::uint64_t warmup_reqs = 10000;  // per warmup window
  const std::uint64_t steady_reqs = 20000;
  const int max_warmup_windows = 10;

  Table table({"engine", "warmup_windows", "warmup_allocs", "steady_reqs",
               "steady_allocs", "steady_bytes", "allocs_per_kreq"});
  for (const char* engine : kAuditedEngines) {
    KvService service(audit_config(engine, telemetry_on));
    service.start();
    Rng rng(0x5eedu);

    // Warmup: populate every lazily-grown structure (epoch slots, reclaimer
    // batches, the mvcc node freelist) and repeat traffic windows until one
    // completes allocation-free. Convergence is guaranteed, not hoped for:
    // every lazily-grown structure has a hard size bound (the reclaimer's
    // backlog cap, the fixed keyspace, the preallocated rings), so the
    // pools stop growing once their high-water marks are reached — the
    // loop just has to drive them there.
    int warm_windows = 0;
    std::uint64_t warm_allocs = 0;
    bool warmed = false;
    while (warm_windows < max_warmup_windows && !warmed) {
      const std::uint64_t before = alloc_count();
      pump(service, rng, warmup_reqs);
      quiesce(service);
      const std::uint64_t delta = alloc_count() - before;
      warm_allocs += delta;
      warm_windows += 1;
      warmed = delta == 0;
    }
    ctx.shape_check(warmed, std::string(engine) +
                                ": warmup converged to an allocation-free "
                                "window");

    // Steady window: same traffic, zero tolerance.
    const AllocCounts steady_before = alloc_counts();
    pump(service, rng, steady_reqs);
    quiesce(service);
    const AllocCounts steady_after = alloc_counts();
    service.stop();

    const std::uint64_t steady_allocs =
        steady_after.allocs - steady_before.allocs;
    const std::uint64_t steady_bytes = steady_after.bytes - steady_before.bytes;
    table.add_row({engine, std::to_string(warm_windows),
                   std::to_string(warm_allocs), std::to_string(steady_reqs),
                   std::to_string(steady_allocs),
                   std::to_string(steady_bytes),
                   std::to_string(steady_allocs * 1000 / steady_reqs)});

    ctx.shape_check(steady_allocs == 0,
                    std::string(engine) +
                        ": zero steady-state heap allocations per request");
    if (telemetry_on) {
      // The sampler must actually have been live during the audited
      // traffic — a zero with a dead sampler would prove nothing about the
      // fold path.
      ctx.shape_check(service.telemetry() != nullptr &&
                          service.telemetry()->ticks() > 0,
                      std::string(engine) +
                          ": sampler folded ticks during the audit");
    }
  }
  ctx.emit(table, "alloc_audit");
  ctx.note("steady_allocs is a process-wide operator-new delta over the "
           "steady window; any nonzero value is a hot-path regression "
           "(DESIGN.md §9)");
}

}  // namespace
}  // namespace asl::bench

// Explicit-only: the audit counts every allocation in the process, so it
// must run in a quiet binary (its own CI step), not after dozens of other
// scenarios' thread and heap churn under --all.
ASL_SCENARIO_EXPLICIT(kv_alloc_audit,
                      "zero-allocation audit of the real request hot path") {
  asl::bench::run_alloc_audit(ctx);
}
