// Latency-targeted capacity probe scenarios (DESIGN.md §5): bisection over
// offered rate for the max rate whose per-class p99 still meets the SLO
// (with zero/bounded rejections), YCSB/treadmill-style.
//
//   * kv_capacity_twin — the probe on the simulated twin. Virtual time, so
//     the whole search is deterministic: the found rate is a regression-
//     testable number (tests/capacity_test.cpp asserts convergence and
//     bracketing on the same configuration).
//   * kv_capacity_real — the probe on the real wall-clock service in smoke
//     mode: coarse tolerance, few trials, horizon scaled by --time-scale.
//     The twin's rate is printed alongside for comparison; shape checks stay
//     on probe-accounting invariants (CI hosts are noisy).
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/capacity_probe.h"
#include "harness/engine_calib.h"
#include "kv_probe_common.h"
#include "server/sim_kv_service.h"
#include "workload/open_loop.h"

namespace asl::bench {
namespace {

using server::KvScenario;
using server::KvService;

// Probe configuration shared by both paths: the steady-uniform scenario with
// a smaller queue (sharper saturation onset — a 512-deep queue absorbs
// minutes of marginal overload before rejecting) and a shortened horizon.
KvScenario probe_scenario(Nanos horizon) {
  KvScenario sc = server::make_kv_scenario("kv_uniform_steady");
  sc.horizon = horizon;
  sc.service.queue_capacity = 128;
  sc.service.prefill_keys = 4096;  // trials rebuild the service; keep cheap
  return sc;
}

CapacityResult probe_twin(const KvScenario& base,
                          const server::SimTwinConfig& twin = {}) {
  const CapacityProbeConfig cfg = twin_probe_config(base);
  return find_capacity(cfg, [&base, &twin](double rate) {
    return server::report_meets_slos(
        server::run_sim_kv(at_rate(base, rate), twin).service);
  });
}

void check_probe_invariants(ScenarioContext& ctx, const CapacityResult& r,
                            std::uint32_t max_trials) {
  ctx.shape_check(!r.trials.empty() && r.trials.size() <= max_trials,
                  "trial count within budget");
  ctx.shape_check(r.feasible == r.trials.front().ok,
                  "feasibility reflects the first trial");
  // The ordering needs both ends of a bracket; without them it would pass
  // vacuously, so it is reported as skipped instead.
  const std::string ordered = "bracket ordered: max feasible < min violating";
  if (!r.feasible) {
    ctx.shape_skip(ordered, "no SLO-feasible rate found");
  } else if (!r.bracketed) {
    ctx.shape_skip(ordered, "no violating rate within the trial budget");
  } else {
    ctx.shape_check(r.max_rate < r.min_violating, ordered);
  }
}

void run_capacity_twin(ScenarioContext& ctx) {
  const Nanos horizon = 10 * kNanosPerMilli;
  const KvScenario base = probe_scenario(horizon);
  ctx.banner("kv_capacity_twin", "latency-targeted load search, virtual time");
  ctx.note("SLOs: kv-get p99 <= 1 ms, kv-put p99 <= 4 ms, zero rejections");

  const CapacityResult r = probe_twin(base);
  ctx.emit(capacity_table(r), "capacity_twin");
  ctx.note("max SLO-feasible rate: " + Table::fmt_ops(r.max_rate) +
           " req/s (first violating: " + Table::fmt_ops(r.min_violating) +
           ")");

  check_probe_invariants(ctx, r, 24);
  ctx.shape_check(r.feasible, "nominal scenario rate is SLO-feasible");
  ctx.shape_check(r.bracketed, "probe found the saturation bracket");
  ctx.shape_check(!r.bracketed || r.trials.size() == 24 ||
                      r.min_violating <= r.max_rate * 1.1 * 1.0001,
                  "bracket narrowed to the 10% tolerance");

  // Per-class view of the same search: each class's capacity is the max
  // offered rate (of the whole mix) at which *that* class still meets its
  // SLO (class_meets_slo). The whole-service capacity above is the min of
  // these, so every per-class number must sit at or above it.
  const std::vector<ClassCapacity> per_class = find_class_capacities_memoized(
      twin_probe_config(base), base.service,
      [&base](double rate) { return server::run_sim_kv(at_rate(base, rate)); });
  ctx.emit(class_capacity_table(per_class), "capacity_twin_by_class");
  bool at_least_service = true;
  for (const ClassCapacity& c : per_class) {
    at_least_service = at_least_service && c.result.feasible &&
                       c.result.max_rate >= r.max_rate * (1.0 - 1e-9);
  }
  ctx.shape_check(at_least_service,
                  "every per-class capacity >= the whole-service capacity");
}

void run_capacity_real(ScenarioContext& ctx) {
  const Nanos horizon = static_cast<Nanos>(
      static_cast<double>(40 * kNanosPerMilli) * ctx.time_scale());
  const KvScenario base = probe_scenario(horizon);
  ctx.banner("kv_capacity_real",
             "latency-targeted load search, wall clock (smoke)");

  // The twin's answer for the same configuration, as the reference point —
  // calibrated on *this* host (the carried ROADMAP fidelity item): the
  // engine's measured per-op profile is fed through KvServiceConfig::cost
  // and the measured NOP cost through SimTwinConfig::nop_ns, so the 2x-band
  // verdict below compares the real probe against a twin modeling this
  // machine's engines, not the checked-in reference host's.
  KvScenario twin_base = probe_scenario(10 * kNanosPerMilli);
  server::SimTwinConfig twin_cfg;
  const EngineCalibResult calib = calibrate_engine(twin_base.service.engine);
  if (calib.valid() && calib.nop_ns > 0) {
    twin_base.service.cost = calib.measured;
    twin_cfg.nop_ns = calib.nop_ns;
    ctx.note("twin reference calibrated on this host: engine=" +
             calib.engine + " get " +
             std::to_string(calib.measured.get.cs_nops) + " / put " +
             std::to_string(calib.measured.put.cs_nops) + " cs NOPs @ " +
             Table::fmt(calib.nop_ns, 3) + " ns/NOP (reference: " +
             std::to_string(calib.reference.get.cs_nops) + " / " +
             std::to_string(calib.reference.put.cs_nops) + ")");
  } else {
    ctx.note("engine calibration unavailable on this host; twin reference "
             "uses the checked-in profile");
  }
  const CapacityResult twin = probe_twin(twin_base, twin_cfg);
  ctx.note("twin reference capacity: " + Table::fmt_ops(twin.max_rate) +
           " req/s (virtual-time model, host-calibrated)");

  // Ten trials double the nominal 1.6e4 req/s up to 8.2e6 req/s, so the
  // bracket closes on a fast quiet host too: with six, a 4-vCPU host was
  // still SLO-feasible at 5.12e5 req/s when the budget ran out.
  constexpr std::uint32_t kTrialBudget = 10;
  CapacityProbeConfig cfg;
  cfg.start_rate = server::nominal_rate_per_sec(base.load);
  cfg.growth = 2.0;
  cfg.tolerance = 0.5;  // smoke: bracket coarsely, spend few trials
  cfg.max_trials = kTrialBudget;
  const CapacityResult r = find_capacity(cfg, [&base](double rate) {
    const KvScenario sc = at_rate(base, rate);
    KvService service(sc.service);
    service.start();
    server::run_open_loop(service, sc.load, sc.horizon);
    service.stop();
    // Real runs tolerate a trace of rejections (generator jitter turns lag
    // into bursts); 0.1% is far below any real saturation signature.
    return server::report_meets_slos(service.report(), 0.001);
  });
  ctx.emit(capacity_table(r), "capacity_real");
  ctx.note(r.feasible
               ? "max SLO-feasible rate (this host): " +
                     Table::fmt_ops(r.max_rate) + " req/s"
               : "nominal rate infeasible on this host (loaded runner)");

  // Automated twin-vs-real cross-check (ROADMAP follow-up): the ratio table
  // plus a *non-fatal* tolerance verdict. A shared runner legitimately lands
  // far from the virtual-time model, so a band miss is a warning note, never
  // a failed shape check — the gate stays on probe accounting.
  const CapacityComparison cmp = compare_capacity(r, twin, /*tolerance=*/2.0);
  ctx.emit(capacity_comparison_table(cmp), "capacity_real_vs_twin");
  if (cmp.within_band) {
    ctx.note("twin-vs-real: real capacity is " +
             Table::fmt(cmp.ratio, 2) + "x the twin's (within the 2x band)");
  } else if (cmp.both_feasible) {
    ctx.note("WARNING (non-fatal): real capacity is " +
             Table::fmt(cmp.ratio, 2) +
             "x the twin's — outside the 2x band; noisy host or a "
             "twin-fidelity drift worth a look (DESIGN.md §5)");
  } else {
    ctx.note("WARNING (non-fatal): twin-vs-real comparison skipped — a "
             "probe found no feasible capacity on this host");
  }

  // Wall-clock results vary across hosts; assert only probe accounting.
  check_probe_invariants(ctx, r, kTrialBudget);
}

}  // namespace
}  // namespace asl::bench

ASL_SCENARIO(kv_capacity_twin,
             "capacity probe on the simulated twin (deterministic)") {
  asl::bench::run_capacity_twin(ctx);
}

ASL_SCENARIO(kv_capacity_real,
             "capacity probe on the real service (smoke mode, coarse)") {
  asl::bench::run_capacity_real(ctx);
}
