#include "server/sim_kv_service.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "asl/runtime.h"
#include "server/telemetry.h"
#include "sim/engine.h"

namespace asl::server {
namespace {

// One queued request inside the twin. `at` is the virtual enqueue instant
// (the TracePoint's scheduled arrival — admission is instantaneous, so
// enqueue time equals arrival time, unlike the wall clock where try_submit
// stamps slightly after the scheduled instant).
struct SimRequest {
  std::uint64_t key = 0;
  std::uint32_t class_index = 0;
  bool is_put = false;
  Nanos at = 0;
};

}  // namespace

struct SimKvService::Impl {
  struct Shard {
    std::deque<SimRequest> queue;
    std::unique_ptr<sim::SimLock> lock;
    SimShardStats stats;
    Nanos depth_since = 0;  // last depth-change instant (integral bookkeeping)
  };

  // One worker per simulated core (the twin of pin_workers): same slot
  // assignment rule as KvService — worker w serves shard w % num_shards,
  // the first big_worker_count slots are big.
  struct Worker {
    std::uint32_t index = 0;
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;  // accounting slot: 0 big, 1 little
    sim::Core core{};
    sim::SimThread sim{};
    // Per-(worker, class) AIMD controllers — the twin of the real service's
    // thread-local epoch state, seeded by the same seed_config_for_slo rule.
    std::vector<WindowController> controllers;
    bool busy = false;
  };

  struct ClassState {
    RequestClass spec;
    std::size_t depth_limit = 0;  // shed_threshold(spec.admission, capacity)
    AdmissionCounts admitted;
  };

  KvServiceConfig config;
  SimTwinConfig twin;
  db::CostProfile cost;  // resolved_cost_profile(config): per-op classes
  Rng rng;
  sim::Engine eng;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<ClassState> classes;
  // The accounting store and fold KvService uses. The twin is single-
  // threaded, so it needs one slot per core type rather than one per
  // worker: slot 0 is every big worker's, slot 1 every little worker's.
  KvAccounting accounting;
  TraceRecorder* recorder = nullptr;  // not owned; null = no recording
  bool ran = false;
  // Telemetry in virtual time (DESIGN.md §11): the same KvTelemetry the
  // real path samples, over the same kind of store.
  std::unique_ptr<KvTelemetry> telemetry;
  // Virtual instant of the last *service* event (arrival or work
  // completion). Telemetry ticks are engine events too, but they must not
  // move the reported drain time — drained_at reads this clock, which tick
  // events leave alone, so telemetry on/off cannot perturb the measured
  // tables (the twin-side zero-perturbation contract).
  Nanos work_clock = 0;
  void touch() { work_clock = eng.now(); }

  Impl(KvServiceConfig cfg, SimTwinConfig tw)
      : config(clamped_config(std::move(cfg))),
        twin(std::move(tw)),
        rng(twin.seed),
        accounting(config.classes, /*num_slots=*/2, /*big_slots=*/1) {
    // Same per-op cost resolution as the real service (engine registry
    // default unless the config carries an explicit profile, then
    // cost_scale): the twin charges the classes the real path spins.
    cost = resolved_cost_profile(config);
    for (const RequestClass& spec : config.classes) {
      ClassState cs;
      cs.spec = spec;
      // Same precomputed shed depths as KvService: the twin and the real
      // service reject a sheddable class at identical queue depths.
      cs.depth_limit = shed_threshold(spec.admission, config.queue_capacity);
      classes.push_back(std::move(cs));
    }

    shards.reserve(config.num_shards);
    for (std::uint32_t s = 0; s < config.num_shards; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->lock =
          make_sim_lock(twin.lock, &eng, &twin.machine, &rng);
      shards.push_back(std::move(shard));
    }

    const std::uint32_t n = config.num_shards * config.workers_per_shard;
    const std::uint32_t num_big = big_worker_count(config);
    for (std::uint32_t w = 0; w < n; ++w) {
      auto worker = std::make_unique<Worker>();
      worker->index = w;
      worker->shard = w % config.num_shards;
      worker->slot = w < num_big ? 0 : 1;
      worker->core.id = w;
      worker->core.type = w < num_big ? CoreType::kBig : CoreType::kLittle;
      worker->core.runnable = 1;
      worker->sim.id = w;
      worker->sim.core = &worker->core;
      for (const RequestClass& spec : config.classes) {
        WindowController::Config ctl;
        if (spec.slo_ns > 0) seed_config_for_slo(ctl, spec.slo_ns);
        worker->controllers.emplace_back(ctl);
      }
      workers.push_back(std::move(worker));
    }

    if (config.telemetry.enabled) {
      telemetry = std::make_unique<KvTelemetry>(config, accounting);
    }
  }

  // One virtual-time sampler fold at telemetry time `t` — the twin of
  // KvService::telemetry_tick, reading the Impl counters directly.
  void sample_tick(Nanos t) {
    TelemetryTickInputs& in = telemetry->inputs();
    for (std::size_t c = 0; c < classes.size(); ++c) {
      in.class_accepted[c] = classes[c].admitted.accepted;
      in.class_shed[c] = classes[c].admitted.shed;
    }
    for (std::size_t s = 0; s < shards.size(); ++s) {
      in.shard_depth[s] = shards[s]->queue.size();
    }
    telemetry->fold_tick(t);
  }

  // Pre-posts one tick event per sample period over the arrival window (the
  // drain-instant final tick is collect()'s). Each tick reports *its own*
  // scheduled time, and none of them calls touch() — sampling reads state,
  // never advances the work clock.
  void schedule_ticks(Nanos horizon) {
    if (!telemetry) return;
    const Nanos period = config.telemetry.sample_period_ns < 1
                             ? 1
                             : config.telemetry.sample_period_ns;
    for (Nanos t = period; t <= horizon; t += period) {
      eng.at(t, [this, t] { sample_tick(t); });
    }
  }

  // Per-op cost-class NOPs -> virtual ns under the machine model's
  // asymmetry, floored at 1 ns so zero-cost classes still advance virtual
  // time. The op kind selects the class (DESIGN.md §7) — this is where the
  // old flat cs_nops fold used to live.
  sim::Time cs_time(CoreType type, bool is_put) const {
    const double ns = static_cast<double>(cost.op(is_put).cs_nops) *
                      twin.nop_ns * twin.machine.cs_slowdown(type);
    return ns < 1.0 ? sim::Time{1} : static_cast<sim::Time>(ns);
  }
  sim::Time post_time(CoreType type, bool is_put) const {
    const double ns = static_cast<double>(cost.op(is_put).post_nops) *
                      twin.nop_ns * twin.machine.ncs_slowdown(type);
    return ns < 1.0 ? sim::Time{1} : static_cast<sim::Time>(ns);
  }
  // Lock-free get service time (DESIGN.md §8): the get class's cs_nops are
  // still the latency-visible read, but they run off-lock at non-CS speed —
  // the twin of the real worker's scale_ncs spin on the lock-free route.
  sim::Time lockfree_get_time(CoreType type) const {
    const double ns = static_cast<double>(cost.get.cs_nops) * twin.nop_ns *
                      twin.machine.ncs_slowdown(type);
    return ns < 1.0 ? sim::Time{1} : static_cast<sim::Time>(ns);
  }

  // One served request's bookkeeping at the end of its service segment: the
  // shard's completion count, the accounting store, and the class
  // controller's feedback (the real worker's epoch_end_with_latency).
  void complete(Worker& worker, Shard& shard, const SimRequest& req,
                Nanos queue_wait) {
    const Nanos total = eng.now() - req.at;
    const Nanos slo = classes[req.class_index].spec.slo_ns;
    shard.stats.completed += 1;
    accounting.complete(worker.slot, req.class_index, total, queue_wait);
    if (slo > 0 && DispatchPolicy::updates_window(worker.core.type)) {
      worker.controllers[req.class_index].on_epoch_end(total, slo);
    }
  }

  void flush_depth(Shard& shard) {
    shard.stats.depth_integral +=
        static_cast<std::uint64_t>(shard.queue.size()) *
        (eng.now() - shard.depth_since);
    shard.depth_since = eng.now();
  }

  // Admission at arrival time. Returns the decision taken (the replay path
  // compares it against the recorded one) and, when a recorder is attached,
  // captures the arrival + decision + route before any queue/worker state
  // moves — so recorded order is exactly virtual processing order.
  TraceDecision arrive(std::uint32_t shard_index, const SimRequest& req) {
    touch();
    Shard& shard = *shards[shard_index];
    ClassState& cls = classes[req.class_index];
    // Mirror of BoundedQueue::try_push_below: capacity exhaustion first,
    // then the class watermark — a shed is counted only when the queue
    // still had room.
    TraceDecision decision = TraceDecision::kAdmit;
    if (shard.queue.size() >= config.queue_capacity) {
      decision = TraceDecision::kReject;
    } else if (shard.queue.size() >= cls.depth_limit) {
      decision = TraceDecision::kShed;
    }
    if (recorder != nullptr) {
      recorder->on_arrival(req.at, req.class_index, req.is_put, req.key,
                           decision, shard_index);
    }
    if (decision == TraceDecision::kReject) {
      cls.admitted.rejected += 1;
      shard.stats.rejected += 1;
      return decision;
    }
    if (decision == TraceDecision::kShed) {
      cls.admitted.shed += 1;
      cls.admitted.rejected += 1;
      shard.stats.rejected += 1;
      shard.stats.shed += 1;
      return decision;
    }
    flush_depth(shard);
    shard.queue.push_back(req);
    cls.admitted.accepted += 1;
    shard.stats.accepted += 1;
    shard.stats.max_depth =
        std::max<std::uint64_t>(shard.stats.max_depth, shard.queue.size());
    // Kick the lowest-index idle worker of this shard (the twin's stand-in
    // for whichever blocked popper the OS would wake first).
    for (auto& worker : workers) {
      if (worker->shard == shard_index && !worker->busy) {
        dispatch(*worker);
        break;
      }
    }
    return decision;
  }

  // One claimed batch member: the request plus its queue wait, frozen at
  // the instant a worker took charge of it (pop time), mirroring the real
  // path's per-request wait measurement.
  struct Pending {
    SimRequest req;
    Nanos wait = 0;
  };

  void dispatch(Worker& worker) {
    Shard& shard = *shards[worker.shard];
    worker.busy = true;
    flush_depth(shard);
    const SimRequest head = shard.queue.front();
    shard.queue.pop_front();
    const Nanos head_wait = eng.now() - head.at;

    if (cost.get_lock_free && !head.is_put) {
      // Lock-free get route — the twin of the real worker's solo off-lock
      // serve: no simulated acquisition, no batch extension, no dispatch-
      // window decision (there is no lock to reorder around). It is a
      // one-request batch with no critical-section members, so the read
      // occupies the worker for lockfree_get_time and the usual
      // accounting / feedback / post-op sequence follows.
      serve_segment(worker, shard,
                    std::make_shared<std::vector<Pending>>(
                        1, Pending{head, head_wait}),
                    0, /*cs_count=*/0, /*acquired_at=*/0);
      return;
    }
    accounting.acquisition(worker.slot, head.is_put);

    // The real worker wraps the shard critical section in epoch_start /
    // epoch_end_with_latency; the twin consumes the same DispatchPolicy and
    // WindowController directly (sim_runner precedent — the feedback loop is
    // production code, only the clock is virtual). As on the real path, the
    // *head* request's class window governs the one dispatch decision the
    // whole batch shares (DESIGN.md §6).
    ClassState& cls = classes[head.class_index];
    WindowController& ctl = worker.controllers[head.class_index];
    const std::uint64_t window = cls.spec.slo_ns > 0
                                     ? ctl.window()
                                     : DispatchPolicy::no_epoch_window();
    const LockPlan plan = DispatchPolicy::plan(worker.core.type, window);
    const Nanos lock_req_at = eng.now();
    shard.lock->acquire(
        &worker.sim,
        plan.immediate ? sim::AcquireMode::kImmediate
                       : sim::AcquireMode::kReorder,
        plan.window_ns,
        [this, &worker, &shard, head, head_wait, lock_req_at] {
          touch();
          const Nanos acquired_at = eng.now();
          accounting.lock_wait(worker.slot, acquired_at - lock_req_at);
          // Batch extension at acquisition time — the twin of the real
          // worker's try_pop loop after lock.lock(): requests already
          // waiting when the lock was won ride along, one simulated lock
          // handoff amortized over all of them. Per-op engine cost is still
          // paid per request (serve_segment), so batching saves handoffs,
          // never work.
          auto batch = std::make_shared<std::vector<Pending>>();
          batch->push_back(Pending{head, head_wait});
          while (batch->size() < config.batch_k && !shard.queue.empty()) {
            flush_depth(shard);
            const SimRequest req = shard.queue.front();
            shard.queue.pop_front();
            batch->push_back(Pending{req, eng.now() - req.at});
          }
          if (recorder != nullptr) {
            // One histogram bucket per acquisition: summed over buckets,
            // batch counts equal the route acquire counters (lock-free solo
            // gets acquire nothing and are not batches).
            recorder->on_batch(worker.shard,
                               static_cast<std::uint32_t>(batch->size()));
          }
          std::size_t cs_count = batch->size();
          if (cost.get_lock_free) {
            // Mixed put-headed batch on the lock-free route: puts run
            // first, inside the CS, gets are deferred past the release —
            // the same stable puts-then-gets reorder the real worker's two
            // serving passes produce (each group keeps pop order; waits
            // were frozen at pop time above, so the reorder only changes
            // *service* order).
            std::stable_partition(
                batch->begin(), batch->end(),
                [](const Pending& p) { return p.req.is_put; });
            cs_count = static_cast<std::size_t>(std::count_if(
                batch->begin(), batch->end(),
                [](const Pending& p) { return p.req.is_put; }));
          }
          serve_segment(worker, shard, batch, 0, cs_count, acquired_at);
        });
  }

  // Serves batch member i: one service segment for *its* op kind, then that
  // request's accounting and controller feedback at the segment's end —
  // later batch members see the work ahead of them in their measured
  // latency, exactly like the real path. Members below cs_count run inside
  // the critical section at cs_time; the lock is released after the last of
  // them, and members past cs_count (deferred lock-free gets — only on a
  // get_lock_free profile, where cs_count is the batch's put count) run
  // off-lock at lockfree_get_time. Then each served request's own post-op
  // interval elapses before the worker re-dispatches or idles.
  void serve_segment(Worker& worker, Shard& shard,
                     const std::shared_ptr<std::vector<Pending>>& batch,
                     std::size_t i, std::size_t cs_count, Nanos acquired_at) {
    const bool in_cs = i < cs_count;
    const sim::Time span = in_cs
                               ? cs_time(worker.core.type, (*batch)[i].req.is_put)
                               : lockfree_get_time(worker.core.type);
    if (!in_cs) accounting.lockfree_gets(worker.slot, 1);
    if (in_cs && !(*batch)[i].req.is_put) accounting.cs_gets(worker.slot, 1);
    eng.after(span, [this, &worker, &shard, batch, i, cs_count, acquired_at] {
      touch();
      complete(worker, shard, (*batch)[i].req, (*batch)[i].wait);
      // Release at the CS boundary: after the last critical-section member,
      // whether or not deferred off-lock gets follow (when cs_count ==
      // batch size this is the historic release-after-last-segment).
      if (i + 1 == cs_count) {
        accounting.lock_hold(worker.slot, eng.now() - acquired_at);
        shard.lock->release(&worker.sim);
      }
      if (i + 1 < batch->size()) {
        serve_segment(worker, shard, batch, i + 1, cs_count, acquired_at);
        return;
      }
      // One post-op interval per served request, each priced by its own op
      // class — the twin of the real path's per-request post spin.
      sim::Time post = 0;
      for (const Pending& p : *batch) {
        post += post_time(worker.core.type, p.req.is_put);
      }
      eng.after(post, [this, &worker, &shard] {
        touch();
        if (!shard.queue.empty()) {
          dispatch(worker);
        } else {
          worker.busy = false;
        }
      });
    });
  }

  // Snapshot after run_all(): per-class reports and routes folded from the
  // accounting store (the fold KvService::report() uses), plus shard stats
  // — shared verbatim by run() and replay() so both emit byte-identical
  // tables for identical executions.
  void collect(SimServiceReport& report) {
    // work_clock, not eng.now(): the last service event defines the drain
    // instant. With telemetry off they are the same clock; with telemetry on
    // a trailing tick event past the drain must not move it.
    report.drained_at = work_clock;
    if (telemetry) {
      // The final tick, at the drain instant — the virtual-time twin of the
      // real Sampler's stop()-time fold: it observes empty queues and final
      // counters, so "the sampler sees zero after drain" holds here too.
      sample_tick(work_clock);
      report.telemetry = telemetry->log();
    }
    for (auto& shard : shards) flush_depth(*shard);
    // epoch_id stays -1: the twin does not touch the global EpochRegistry.
    for (std::uint32_t c = 0; c < classes.size(); ++c) {
      report.service.classes.push_back(
          accounting.fold_class(c, classes[c].admitted));
    }
    for (const auto& shard : shards) {
      report.shards.push_back(shard->stats);
    }
    report.lock_routes = accounting.routes();
  }
};

SimKvService::SimKvService(KvServiceConfig config, SimTwinConfig twin)
    : impl_(new Impl(std::move(config), std::move(twin))) {}

SimKvService::~SimKvService() { delete impl_; }

std::uint32_t SimKvService::shard_of(std::uint64_t key) const {
  return shard_for_key(key, impl_->config.num_shards);
}

const KvServiceConfig& SimKvService::config() const { return impl_->config; }

SimServiceReport SimKvService::run(const std::vector<LoadSpec>& load,
                                   Nanos horizon) {
  SimServiceReport report;
  report.horizon = horizon;
  if (impl_->ran) return report;  // single-shot, like one start/stop cycle
  impl_->ran = true;

  // Pre-generate every schedule with the same pure function the wall-clock
  // generator replays, then post arrivals as engine events. Specs aimed at
  // unknown classes offer nothing (run_open_loop's rule).
  for (const LoadSpec& spec : load) {
    if (spec.class_index >= impl_->classes.size()) continue;
    for (const TracePoint& p : generate_trace(spec, horizon)) {
      SimRequest req;
      req.key = p.key;
      req.class_index = spec.class_index;
      req.is_put = p.is_put;
      req.at = p.at;
      report.offered += 1;
      impl_->eng.at(p.at, [this, req] {
        impl_->arrive(shard_of(req.key), req);
      });
    }
  }

  impl_->schedule_ticks(horizon);

  // Drain completely: arrivals stop at the horizon, workers run the queues
  // dry — the virtual-time equivalent of stop()'s close-then-drain, so
  // completed == accepted holds exactly on return.
  impl_->eng.run_all();
  impl_->collect(report);
  return report;
}

void SimKvService::record_to(TraceRecorder* recorder) {
  impl_->recorder = recorder;
}

SimReplayReport SimKvService::replay(const RecordedTrace& trace) {
  SimReplayReport rr;
  rr.report.horizon = trace.meta.horizon;
  if (impl_->ran) return rr;  // single-shot, like run()
  impl_->ran = true;

  // Schedule the recorded stream in record order. Recorded order is the
  // original run's processing order ((time, insertion) — sim/engine.h), so
  // inserting in that order preserves both the time order and the original
  // FIFO tie-breaks among equal timestamps: the replayed event sequence is
  // the original one, which is what makes the tables byte-identical under
  // the recorded config. Records aimed at classes this config lacks are
  // skipped, mirroring run()'s unknown-class rule.
  for (const TraceRecord& rec : trace.records) {
    if (rec.class_index >= impl_->classes.size()) {
      rr.skipped += 1;
      continue;
    }
    SimRequest req;
    req.key = rec.key;
    req.class_index = rec.class_index;
    req.is_put = rec.is_put;
    req.at = rec.at;
    rr.report.offered += 1;
    impl_->eng.at(rec.at, [this, req, rec, &rr] {
      // Routing is always recomputed from the key: under the recorded
      // config it reproduces the recorded shard (shared shard_for_key
      // rule); under a changed shard count the divergence counter says how
      // much of the recorded routing no longer applies.
      const std::uint32_t shard = shard_of(req.key);
      if (shard != rec.shard) rr.shard_divergence += 1;
      const TraceDecision live = impl_->arrive(shard, req);
      if (live != rec.decision) rr.decision_divergence += 1;
    });
  }

  impl_->schedule_ticks(trace.meta.horizon);

  impl_->eng.run_all();
  impl_->collect(rr.report);
  return rr;
}

SimServiceReport run_sim_kv(const KvScenario& scenario,
                            const SimTwinConfig& twin) {
  SimKvService service(scenario.service, twin);
  return service.run(scenario.load, scenario.horizon);
}

RecordedTrace record_sim_kv(const KvScenario& scenario,
                            const SimTwinConfig& twin,
                            SimServiceReport* report_out) {
  SimKvService service(scenario.service, twin);
  TraceRecorder recorder;
  service.record_to(&recorder);
  const SimServiceReport report = service.run(scenario.load, scenario.horizon);

  TraceMeta meta;
  if (!scenario.name.empty()) meta.scenario = scenario.name;
  meta.engine = service.config().engine;
  meta.horizon = scenario.horizon;
  meta.num_shards = service.config().num_shards;
  meta.twin_seed = twin.seed;
  meta.real_path = false;
  for (const RequestClass& cls : service.config().classes) {
    meta.class_names.push_back(cls.name);
  }
  for (const LoadSpec& spec : scenario.load) {
    meta.seeds.push_back(TraceMeta::SpecSeed{spec.class_index, spec.seed});
  }
  if (report_out != nullptr) *report_out = report;
  return recorder.finish(std::move(meta), report.lock_routes);
}

SimReplayReport replay_sim_kv(const RecordedTrace& trace,
                              const KvServiceConfig& config,
                              const SimTwinConfig& twin) {
  SimKvService service(config, twin);
  return service.replay(trace);
}

TraceAccounting sim_trace_accounting(const SimServiceReport& report) {
  TraceAccounting acc;
  for (const ClassReport& c : report.service.classes) {
    TraceClassTotals t;
    t.name = c.name;
    t.accepted = c.accepted;
    t.rejected = c.rejected;
    t.shed = c.shed;
    acc.classes.push_back(std::move(t));
  }
  for (const SimShardStats& s : report.shards) {
    acc.shards.push_back(TraceShardTotals{s.accepted, s.rejected, s.shed});
  }
  acc.routes = report.lock_routes;
  return acc;
}

Table sim_kv_measured_table(const SimServiceReport& report) {
  // All-integer cells (virtual ns): byte-identical across runs and the
  // anchor of the twin's determinism + golden-trace tests.
  Table table({"class", "slo_us", "offered", "accepted", "rejected", "shed",
               "completed", "slo_met", "mean_ns", "p50_ns", "p99_ns",
               "p99_big_ns", "p99_little_ns", "qwait_p99_ns"});
  for (const ClassReport& c : report.service.classes) {
    table.add_row(
        {c.name, std::to_string(c.slo_ns / kNanosPerMicro),
         std::to_string(c.accepted + c.rejected), std::to_string(c.accepted),
         std::to_string(c.rejected), std::to_string(c.shed),
         std::to_string(c.completed), std::to_string(c.slo_met),
         std::to_string(
             static_cast<std::uint64_t>(c.total.overall().mean())),
         std::to_string(c.total.overall().p50()),
         std::to_string(c.total.overall().p99()),
         std::to_string(c.total.p99_big()),
         std::to_string(c.total.p99_little()),
         std::to_string(c.queue_wait.p99())});
  }
  return table;
}

Table sim_kv_shard_table(const SimServiceReport& report) {
  // mean_depth_milli = time-averaged queue depth * 1000 (integer cell).
  const std::uint64_t span = report.drained_at > 0 ? report.drained_at : 1;
  Table table({"shard", "accepted", "rejected", "shed", "completed",
               "max_depth", "mean_depth_milli"});
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const SimShardStats& st = report.shards[s];
    table.add_row({std::to_string(s), std::to_string(st.accepted),
                   std::to_string(st.rejected), std::to_string(st.shed),
                   std::to_string(st.completed), std::to_string(st.max_depth),
                   std::to_string(st.depth_integral * 1000 / span)});
  }
  return table;
}

Table sim_kv_telemetry_table(const SimServiceReport& report) {
  // Long-form {series, t_ns, value}: integer virtual-ns cells plus the
  // series name — byte-identical across runs, goldenable.
  return report.telemetry.table();
}

}  // namespace asl::server
