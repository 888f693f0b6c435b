// Engine sweep (DESIGN.md §7): the measured case for the pluggable-engine
// subsystem — the same front-end, traffic and SLOs over hash, btree and
// lsm shards, so every difference in the tables is the *engine's* cost
// profile (the paper's Fig. 9/10 point: ASL's benefit and the service's
// capacity depend on the engine's critical-section shape).
//
//   * kv_engine_sweep_twin — engine x read/write mix x offered load on the
//     simulated twin (virtual time, deterministic): a completion/latency
//     table per cell, then a per-class capacity probe per engine
//     (find_capacity_per_class). Two headline facts become assertable:
//     the per-engine capacity ordering at the standard get-dominant mix
//     (lsm > hash > btree — the lock-held share of the op decides, and
//     LSM gets snapshot briefly then read off-lock while btree holds the
//     global lock for the whole traversal), and the LSM read/write
//     asymmetry — put-heavy LSM capacity collapses to a fraction of its
//     get-heavy capacity and falls below hash's, a contrast the symmetric
//     hash profile provably hides (its own get/put ratio stays near 1).
//   * kv_engine_sweep_real — the same engines under the wall-clock service
//     in smoke mode: accounting invariants and store growth per engine
//     (real latency on a shared runner is not assertable).
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "harness/capacity_probe.h"
#include "kv_probe_common.h"
#include "server/sim_kv_service.h"
#include "workload/open_loop.h"

namespace asl::bench {
namespace {

using server::ClassReport;
using server::KvScenario;
using server::KvService;
using server::SimServiceReport;

// One read/write mix: per-class rate multipliers over the standard scenario
// (class 0 = gets at 12k/s nominal, class 1 = puts at 4k/s nominal).
struct Mix {
  const char* name;
  double get_scale;
  double put_scale;
};
constexpr Mix kMixes[] = {
    {"get_heavy", 1.0, 0.25},  // 12k gets : 1k puts
    {"standard", 1.0, 1.0},    // 12k gets : 4k puts (the scenario default)
    {"put_heavy", 1.0 / 6, 3.0},  // 2k gets : 12k puts
};

// --mix= accepts a kMixes name or a "R:W" get:put rate ratio. A ratio keeps
// the standard mix's total nominal rate (16k/s) and splits it R:W, so
// "3:1" reproduces the standard mix and "12:1" the get_heavy one.
bool parse_mix(const std::string& text, Mix& out) {
  for (const Mix& mix : kMixes) {
    if (text == mix.name) {
      out = mix;
      return true;
    }
  }
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  const double r = std::atof(text.substr(0, colon).c_str());
  const double w = std::atof(text.substr(colon + 1).c_str());
  if (r < 0 || w < 0 || r + w <= 0) return false;
  constexpr double kNominalGets = 12'000.0, kNominalPuts = 4'000.0;
  const double total = kNominalGets + kNominalPuts;
  out.name = "ratio";
  out.get_scale = total * r / (r + w) / kNominalGets;
  out.put_scale = total * w / (r + w) / kNominalPuts;
  return true;
}

// The engine / mix subsets a run covers, honouring the --engine= / --mix=
// CLI filters (scenario.h). Returns false (after a failing shape check, so
// CI exits nonzero) when a filter names something unknown.
bool filtered_engines(ScenarioContext& ctx, std::vector<std::string>& out) {
  out = db::kv_engine_names();
  const std::string filter = ctx.option("engine");
  if (filter.empty()) return true;
  for (const std::string& name : out) {
    if (name == filter) {
      out = {filter};
      ctx.note("--engine=" + filter + ": running that engine only");
      return true;
    }
  }
  ctx.shape_check(false, "--engine=" + filter + " names a registered engine");
  return false;
}

bool filtered_mixes(ScenarioContext& ctx, std::vector<Mix>& out) {
  out.assign(std::begin(kMixes), std::end(kMixes));
  const std::string filter = ctx.option("mix");
  if (filter.empty()) return true;
  Mix mix{};
  if (!parse_mix(filter, mix)) {
    ctx.shape_check(false, "--mix=" + filter +
                               " is a known mix name or R:W ratio");
    return false;
  }
  out = {mix};
  ctx.note("--mix=" + filter + ": gets x" + Table::fmt(mix.get_scale, 3) +
           ", puts x" + Table::fmt(mix.put_scale, 3) + " of nominal");
  return true;
}

// The sweep cell: the shared overload profile (scenarios.h — 128-deep
// queue, every per-op class scaled 100x) on `engine`, with the mix applied
// before the whole-load scale so "Nx offered" always means N times the
// *mix's* nominal rate.
KvScenario sweep_scenario(const std::string& engine, const Mix& mix,
                          double rate_scale, Nanos horizon) {
  KvScenario sc = server::make_overloaded_kv_scenario("kv_uniform_steady",
                                                      1.0, horizon);
  sc.service.engine = engine;
  server::scale_class_rates(sc.load, 0, mix.get_scale);
  server::scale_class_rates(sc.load, 1, mix.put_scale);
  server::scale_load_rates(sc.load, rate_scale);
  return sc;
}

std::uint64_t tput_per_sec(const SimServiceReport& r) {
  return r.horizon == 0 ? 0
                        : r.total_completed() * kNanosPerSec / r.horizon;
}

// Whole-service capacity of `engine` under `mix` (twin probe, 10 ms
// trials): the max offered rate of the whole mix meeting every class SLO.
CapacityResult engine_capacity(const std::string& engine, const Mix& mix) {
  const KvScenario base =
      sweep_scenario(engine, mix, 1.0, 10 * kNanosPerMilli);
  return find_capacity(twin_probe_config(base), [&base](double rate) {
    return server::report_meets_slos(
        server::run_sim_kv(at_rate(base, rate)).service);
  });
}

void run_engine_sweep_twin(ScenarioContext& ctx) {
  const Nanos horizon = 20 * kNanosPerMilli;

  ctx.banner("kv_engine_sweep_twin",
             "engine x mix x offered-load sweep on the simulated twin "
             "(deterministic)");
  ctx.note("per-op cost classes from the engine registry defaults "
           "(db/engine.cpp), scaled 100x; same traffic, SLOs and admission "
           "policy in every cell");
  std::vector<std::string> engines;
  std::vector<Mix> mixes;
  if (!filtered_engines(ctx, engines) || !filtered_mixes(ctx, mixes)) return;
  // The headline cross-engine/cross-mix checks compare cells a filtered run
  // may not produce — they only run on the full matrix.
  const bool full_matrix =
      ctx.option("engine").empty() && ctx.option("mix").empty();

  Table sweep({"engine", "mix", "offered_x", "offered", "accepted",
               "rejected", "completed", "tput_per_sec", "get_p99_ns",
               "put_p99_ns"});
  bool conserved = true;
  for (const std::string& engine : engines) {
    for (const Mix& mix : mixes) {
      for (const double scale : {1.0, 4.0, 8.0}) {
        const SimServiceReport r =
            server::run_sim_kv(sweep_scenario(engine, mix, scale, horizon));
        const ClassReport& get = r.service.classes[0];
        const ClassReport& put = r.service.classes[1];
        sweep.add_row({engine, mix.name, std::to_string(
                           static_cast<std::uint64_t>(scale)),
                       std::to_string(r.offered),
                       std::to_string(r.total_accepted()),
                       std::to_string(r.total_rejected()),
                       std::to_string(r.total_completed()),
                       std::to_string(tput_per_sec(r)),
                       std::to_string(get.total.overall().p99()),
                       std::to_string(put.total.overall().p99())});
        conserved = conserved &&
                    r.offered == r.total_accepted() + r.total_rejected() &&
                    r.total_completed() == r.total_accepted();
      }
    }
  }
  ctx.emit(sweep, "engine_sweep");
  ctx.shape_check(conserved, "conservation in every sweep cell");

  // Per-class capacity per engine at the standard mix: how much offered
  // load can each class absorb on each engine while keeping its SLO.
  // Skipped under a --mix filter (it is a standard-mix table by
  // definition); an --engine filter just narrows the rows.
  if (!ctx.option("mix").empty()) {
    ctx.note("mix filter active: standard-mix capacity tables and headline "
             "checks skipped");
    return;
  }
  std::map<std::string, double> service_capacity;
  for (const std::string& engine : engines) {
    const KvScenario base = sweep_scenario(engine, kMixes[1], 1.0,
                                           10 * kNanosPerMilli);
    const std::vector<ClassCapacity> per_class =
        find_class_capacities_memoized(
            twin_probe_config(base), base.service,
            [&base](double rate) {
              return server::run_sim_kv(at_rate(base, rate));
            });
    ctx.emit(class_capacity_table(per_class),
             "capacity_by_class_" + engine);
    const CapacityResult whole = engine_capacity(engine, kMixes[1]);
    service_capacity[engine] = whole.feasible ? whole.max_rate : 0.0;
    ctx.note(engine + ": standard-mix service capacity " +
             Table::fmt_ops(whole.max_rate) + " req/s");
  }
  if (!full_matrix) {
    ctx.note("engine filter active: cross-engine headline checks skipped");
    return;
  }
  // At the standard (get-dominant) mix the *lock-held* share of the op
  // orders capacity: LSM gets spend ~250 scaled NOPs under the meta lock
  // (snapshot) and the rest off-lock, hash pays ~400 for the whole op
  // under the slot lock, and btree holds the global lock for the full
  // ~1000-NOP traversal — so lsm > hash > btree, deterministically.
  // Looked up by name: the claim is about these three engines and must
  // keep holding when the registry grows a fourth.
  ctx.shape_check(service_capacity["lsm"] > service_capacity["hash"] &&
                      service_capacity["hash"] > service_capacity["btree"],
                  "standard-mix capacity ordering: lsm > hash > btree");

  // The LSM read/write asymmetry, and why a hash shard hides it: at equal
  // offered mixes, LSM's get-heavy capacity stands far above its put-heavy
  // capacity (put amplification — memtable append + amortized compaction
  // under the lock), while hash's two capacities stay close (symmetric
  // classes). The contrast is the ratio of ratios.
  const CapacityResult lsm_get = engine_capacity("lsm", kMixes[0]);
  const CapacityResult lsm_put = engine_capacity("lsm", kMixes[2]);
  const CapacityResult hash_get = engine_capacity("hash", kMixes[0]);
  const CapacityResult hash_put = engine_capacity("hash", kMixes[2]);
  Table asym({"engine", "get_heavy_cap", "put_heavy_cap", "ratio_milli"});
  auto ratio_milli = [](const CapacityResult& g, const CapacityResult& p) {
    return p.max_rate <= 0
               ? std::uint64_t{0}
               : static_cast<std::uint64_t>(g.max_rate / p.max_rate * 1000.0);
  };
  asym.add_row({"hash", Table::fmt_ops(hash_get.max_rate),
                Table::fmt_ops(hash_put.max_rate),
                std::to_string(ratio_milli(hash_get, hash_put))});
  asym.add_row({"lsm", Table::fmt_ops(lsm_get.max_rate),
                Table::fmt_ops(lsm_put.max_rate),
                std::to_string(ratio_milli(lsm_get, lsm_put))});
  ctx.emit(asym, "engine_rw_asymmetry");
  ctx.shape_check(lsm_get.feasible && lsm_put.feasible &&
                      lsm_get.max_rate > lsm_put.max_rate * 1.5,
                  "LSM put amplification: get-heavy capacity > 1.5x "
                  "put-heavy capacity");
  ctx.shape_check(lsm_put.max_rate < hash_put.max_rate,
                  "under the put-heavy mix LSM falls below hash — the "
                  "get-mix advantage flips with the op mix");
  ctx.shape_check(hash_get.feasible && hash_put.feasible &&
                      hash_put.max_rate > 0 && lsm_put.max_rate > 0 &&
                      lsm_get.max_rate / lsm_put.max_rate >
                          hash_get.max_rate / hash_put.max_rate * 1.3,
                  "the asymmetry is the engine's, not the mix's: the hash "
                  "shard's get/put capacity ratio stays well below LSM's");
}

void run_engine_sweep_real(ScenarioContext& ctx) {
  const Nanos horizon = static_cast<Nanos>(
      static_cast<double>(40 * kNanosPerMilli) * ctx.time_scale());
  ctx.banner("kv_engine_sweep_real",
             "engines under the wall-clock service (smoke mode)");

  std::vector<std::string> engines;
  if (!filtered_engines(ctx, engines)) return;

  bool conserved = true;
  bool stores_grow = true;
  for (const std::string& engine : engines) {
    KvScenario sc = server::make_kv_scenario("kv_uniform_steady", engine);
    sc.service.prefill_keys = 4096;

    KvService service(sc.service);
    const std::size_t prefilled = service.store_size();
    service.start();
    server::run_open_loop(service, sc.load, horizon);
    service.stop();
    const server::ServiceReport r = service.report();
    ctx.note("engine=" + engine + ": " +
             std::to_string(r.total_completed()) + " completed, store " +
             std::to_string(service.store_size()) + " keys");
    ctx.emit(kv_measured_table(r), "kv_measured_" + engine);
    conserved = conserved && r.total_completed() == r.total_accepted();
    // Puts write distinct "k" keys into a 32k key space against a 4k
    // prefill, so any realistic run grows the store on every engine.
    stores_grow = stores_grow && service.store_size() >= prefilled &&
                  r.total_completed() > 0;
  }
  ctx.shape_check(conserved,
                  "stop() drains every accepted request on every engine");
  ctx.shape_check(stores_grow, "every engine served traffic and kept its "
                               "prefilled store");
}

// ---------------------------------------------------------------------------
// Read-scaling (DESIGN.md §8): the measured case for the lock-free get
// route. One shard, the get-heavy mix, worker count 1 vs 8 — on a locked
// engine every extra worker still queues on the same shard mutex for its
// gets, so get capacity plateaus near the single-worker figure; on mvcc the
// gets never touch the mutex and capacity grows with the worker pool.

// The read-scaling cell: the overload profile pinned to a single shard so
// the shard lock is the only possible bottleneck, with `workers` serving it
// (first half big, the service's default split) and the get-heavy mix.
KvScenario read_scaling_scenario(const std::string& engine,
                                 std::uint32_t workers, Nanos horizon) {
  KvScenario sc = server::make_overloaded_kv_scenario("kv_uniform_steady",
                                                      1.0, horizon);
  sc.service.engine = engine;
  sc.service.num_shards = 1;
  sc.service.workers_per_shard = workers;
  sc.service.big_workers = (workers + 1) / 2;
  server::scale_class_rates(sc.load, 0, kMixes[0].get_scale);
  server::scale_class_rates(sc.load, 1, kMixes[0].put_scale);
  return sc;
}

void run_mvcc_read_scaling_twin(ScenarioContext& ctx) {
  ctx.banner("kv_mvcc_read_scaling",
             "lock-free get route: get-class capacity vs worker count on "
             "the twin (deterministic)");
  ctx.note("one shard, get-heavy mix (12k:1k nominal); mvcc gets bypass the "
           "shard lock (LockRouteStats proves it), hash gets serialize on "
           "it");

  Table table({"engine", "workers", "get_cap_per_sec", "put_cap_per_sec",
               "get_route_acq", "put_route_acq", "cs_gets",
               "lockfree_gets"});
  std::map<std::string, std::map<std::uint32_t, double>> get_cap;
  bool routes_ok = true;
  for (const std::string engine : {"hash", "mvcc"}) {
    for (const std::uint32_t workers : {1u, 8u}) {
      const KvScenario base =
          read_scaling_scenario(engine, workers, 10 * kNanosPerMilli);
      const std::vector<ClassCapacity> per_class =
          find_class_capacities_memoized(
              twin_probe_config(base), base.service,
              [&base](double rate) {
                return server::run_sim_kv(at_rate(base, rate));
              });
      get_cap[engine][workers] = per_class[0].result.max_rate;
      // Route accounting from one deterministic nominal-rate run: on mvcc
      // no acquisition is ever headed by a get and no get runs in a CS.
      const SimServiceReport r = server::run_sim_kv(base);
      const server::LockRouteStats& routes = r.lock_routes;
      table.add_row({engine, std::to_string(workers),
                     Table::fmt_ops(per_class[0].result.max_rate),
                     Table::fmt_ops(per_class[1].result.max_rate),
                     std::to_string(routes.get_route_acquires),
                     std::to_string(routes.put_route_acquires),
                     std::to_string(routes.cs_gets),
                     std::to_string(routes.lockfree_gets)});
      if (engine == "mvcc") {
        routes_ok = routes_ok && routes.get_route_acquires == 0 &&
                    routes.cs_gets == 0 && routes.lockfree_gets > 0;
      } else {
        routes_ok = routes_ok && routes.get_route_acquires > 0 &&
                    routes.cs_gets > 0 && routes.lockfree_gets == 0;
      }
    }
  }
  ctx.emit(table, "mvcc_read_scaling");

  ctx.shape_check(routes_ok,
                  "route counters: mvcc gets never acquire the shard lock "
                  "(get_route_acquires == 0, cs_gets == 0), hash gets do");
  const double mvcc_gain = get_cap["mvcc"][1] > 0
                               ? get_cap["mvcc"][8] / get_cap["mvcc"][1]
                               : 0.0;
  const double hash_gain = get_cap["hash"][1] > 0
                               ? get_cap["hash"][8] / get_cap["hash"][1]
                               : 0.0;
  ctx.note("get-class capacity gain 1 -> 8 workers: mvcc " +
           Table::fmt(mvcc_gain, 2) + "x, hash " + Table::fmt(hash_gain, 2) +
           "x");
  // The tentpole assertion: off-lock gets scale with the worker pool (4 big
  // + 4 little on 8 workers give well over 3x one big worker's service
  // rate), while gets on a locked engine are bounded by lock throughput —
  // at best the post-op share of the op is reclaimed, < 1.5x.
  ctx.shape_check(mvcc_gain >= 3.0,
                  "mvcc get capacity scales >= 3x from 1 to 8 workers");
  ctx.shape_check(hash_gain > 0 && hash_gain < 1.5,
                  "hash get capacity plateaus (< 1.5x) — the shard lock "
                  "caps the locked read path");
}

void run_mvcc_read_scaling_real(ScenarioContext& ctx) {
  const Nanos horizon = static_cast<Nanos>(
      static_cast<double>(40 * kNanosPerMilli) * ctx.time_scale());
  ctx.banner("kv_mvcc_read_scaling_real",
             "lock-free get route on the wall-clock service (smoke: route "
             "counters + completion ordering)");
  ctx.note("same single-shard get-heavy overload as the twin scenario, "
           "8 workers; latency is not asserted, the route counters and the "
           "mvcc > hash completion ordering are");

  std::map<std::string, std::uint64_t> completed;
  bool routes_ok = true;
  bool conserved = true;
  for (const std::string engine : {"hash", "mvcc"}) {
    KvScenario sc = read_scaling_scenario(engine, 8, horizon);
    sc.service.prefill_keys = 4096;
    // Push the single shard past the locked path's service rate (the
    // nominal get-heavy mix is well inside both engines' capacity): the
    // completion ordering below only discriminates once hash saturates.
    server::scale_load_rates(sc.load, 6.0);
    KvService service(sc.service);
    service.start();
    server::run_open_loop(service, sc.load, horizon);
    service.stop();
    const server::ServiceReport r = service.report();
    const server::LockRouteStats routes = service.lock_route_stats();
    completed[engine] = r.total_completed();
    conserved = conserved && r.total_completed() == r.total_accepted();
    ctx.note("engine=" + engine + ": " +
             std::to_string(r.total_completed()) + " completed; acquires " +
             std::to_string(routes.get_route_acquires) + " get-route / " +
             std::to_string(routes.put_route_acquires) + " put-route, " +
             std::to_string(routes.cs_gets) + " CS gets, " +
             std::to_string(routes.lockfree_gets) + " lock-free gets");
    ctx.emit(kv_measured_table(r), "kv_measured_" + engine);
    if (engine == "mvcc") {
      routes_ok = routes_ok && routes.get_route_acquires == 0 &&
                  routes.cs_gets == 0 && routes.lockfree_gets > 0;
    } else {
      routes_ok = routes_ok && routes.get_route_acquires > 0 &&
                  routes.cs_gets > 0;
    }
  }
  ctx.shape_check(conserved, "stop() drains every accepted request");
  ctx.shape_check(routes_ok,
                  "real-path route counters: mvcc gets never block on the "
                  "shard mutex (get-route acquires == 0), hash gets do");
  // Same ordering as the twin: with one shard saturated by the get-heavy
  // overload, the engine whose gets bypass the lock completes more. The
  // ordering needs actual hardware parallelism — on a 1-2 core host the 8
  // off-lock workers timeshare one pipeline and the lock is not the
  // bottleneck — so it is asserted only where it can physically appear.
  const std::string ordering =
      "mvcc completes more than hash under the single-shard get-heavy "
      "overload";
  if (std::thread::hardware_concurrency() >= 4) {
    ctx.shape_check(completed["mvcc"] > completed["hash"], ordering);
  } else {
    ctx.shape_skip(ordering, "host has < 4 cores, so the off-lock gets have "
                             "no parallelism to win");
  }
}

}  // namespace
}  // namespace asl::bench

ASL_SCENARIO(kv_engine_sweep_twin,
             "engine x mix x offered-load sweep + per-engine capacity on "
             "the twin (deterministic)") {
  asl::bench::run_engine_sweep_twin(ctx);
}

ASL_SCENARIO(kv_engine_sweep_real,
             "engines under the real service (smoke, accounting)") {
  asl::bench::run_engine_sweep_real(ctx);
}

ASL_SCENARIO(kv_mvcc_read_scaling,
             "lock-free get route: mvcc vs hash get-capacity scaling in "
             "workers on the twin (deterministic)") {
  asl::bench::run_mvcc_read_scaling_twin(ctx);
}

ASL_SCENARIO(kv_mvcc_read_scaling_real,
             "lock-free get route on the real service (route counters + "
             "completion ordering)") {
  asl::bench::run_mvcc_read_scaling_real(ctx);
}
