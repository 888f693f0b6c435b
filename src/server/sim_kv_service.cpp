#include "server/sim_kv_service.h"

#include <algorithm>
#include <memory>
#include <string>

#include "asl/runtime.h"
#include "server/telemetry.h"
#include "sim/core_model.h"
#include "sim/engine.h"
#include "sim/sim_lock.h"

namespace asl::server {

struct SimKvService::Impl {
  struct Shard {
    std::unique_ptr<sim::SimLock> lock;
    SimShardStats stats;
    Nanos depth_since = 0;  // last depth-change instant (integral bookkeeping)
  };

  // One worker per simulated core (the twin of pin_workers), laid out by
  // the core's worker specs.
  struct Worker {
    Worker(const WorkerSpec& s, const ServiceCore& core)
        : spec(s), batch(core.batch()) {
      cpu.id = spec.index;
      cpu.type = spec.type;
      cpu.runnable = 1;
      sim.id = spec.index;
      sim.core = &cpu;
      // Per-(worker, class) AIMD controllers — the twin of the real
      // service's thread-local epoch state, from the same seeds.
      for (std::uint32_t c = 0; c < core.num_classes(); ++c) {
        controllers.emplace_back(core.class_state(c).controller);
      }
    }
    WorkerSpec spec;
    sim::Core cpu{};
    sim::SimThread sim{};
    std::vector<WindowController> controllers;
    Batch batch;            // the batch in service while busy
    Nanos acquired_at = 0;  // its lock grant
    bool busy = false;
  };

  ServiceCore core;
  SimTwinConfig twin;
  const sim::MachineParams machine{};  // the twin's constant machine model
  Rng rng;
  sim::Engine eng;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::unique_ptr<Worker>> workers;
  bool ran = false;
  // Virtual instant of the last *service* event (arrival or work
  // completion). Telemetry ticks are engine events too, but they must not
  // move the reported drain time — drained_at reads this clock, which tick
  // events leave alone, so telemetry on/off cannot perturb the measured
  // tables (the twin-side zero-perturbation contract).
  Nanos work_clock = 0;
  void touch() { work_clock = eng.now(); }

  Impl(KvServiceConfig cfg, SimTwinConfig tw)
      : core(std::move(cfg), ServiceCore::Slots::kPerCoreType),
        twin(std::move(tw)),
        rng(twin.seed) {
    for (std::uint32_t s = 0; s < core.config().num_shards; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->lock = make_sim_lock(sim::LockKind::kBlockingReorderable, &eng,
                                  &machine, &rng);
      shards.push_back(std::move(shard));
    }
    for (const WorkerSpec& spec : core.workers()) {
      workers.push_back(std::make_unique<Worker>(spec, core));
    }
  }

  // Pre-posts one telemetry tick per sample period over the arrival window
  // (the drain-instant final tick is collect()'s). Each tick reports *its
  // own* scheduled time, and none of them calls touch() — sampling reads
  // state, never advances the work clock.
  void schedule_ticks(Nanos horizon) {
    KvTelemetry* const telem = core.telemetry();
    if (telem == nullptr) return;
    const Nanos period = std::max<Nanos>(
        core.config().telemetry.sample_period_ns, 1);
    for (Nanos t = period; t <= horizon; t += period) {
      eng.at(t, [telem, t] { telem->fold_tick(t); });
    }
  }

  // The virtual clock's price of a segment: NOPs -> virtual ns under the
  // machine model's asymmetry, floored at 1 ns so zero-cost classes still
  // advance virtual time.
  sim::Time virtual_ns(CoreType type, Price price) const {
    const double ns = static_cast<double>(price.nops) * twin.nop_ns *
                      (price.cs_speed ? machine.cs_slowdown(type)
                                      : machine.ncs_slowdown(type));
    return ns < 1.0 ? sim::Time{1} : static_cast<sim::Time>(ns);
  }

  void flush_depth(std::uint32_t s) {
    Shard& shard = *shards[s];
    shard.stats.depth_integral +=
        static_cast<std::uint64_t>(core.queue(s).size()) *
        (eng.now() - shard.depth_since);
    shard.depth_since = eng.now();
  }

  // Admission at arrival time (ServiceCore::admit). Returns the decision
  // taken (the replay path compares it against the recorded one); the
  // core hands it to an attached recorder before any worker state moves,
  // so recorded order is exactly virtual processing order.
  TraceDecision arrive(std::uint32_t s, const Request& req) {
    touch();
    flush_depth(s);
    const TraceDecision decision = core.admit(req, s);
    SimShardStats& stats = shards[s]->stats;
    if (decision != TraceDecision::kAdmit) {
      stats.rejected += 1;
      if (decision == TraceDecision::kShed) stats.shed += 1;
      return decision;
    }
    stats.accepted += 1;
    stats.max_depth =
        std::max<std::uint64_t>(stats.max_depth, core.queue(s).size());
    // Kick the lowest-index idle worker of this shard (the twin's stand-in
    // for whichever blocked popper the OS would wake first).
    for (auto& worker : workers) {
      if (worker->spec.shard == s && !worker->busy) {
        dispatch(*worker);
        break;
      }
    }
    return decision;
  }

  void dispatch(Worker& worker) {
    const std::uint32_t s = worker.spec.shard;
    worker.busy = true;
    flush_depth(s);
    Request head;
    core.queue(s).try_pop(head);
    worker.batch.start(head, eng.now());
    if (!worker.batch.locked()) {
      // Lock-free get route — the twin of the real worker's solo off-lock
      // serve: no simulated acquisition, no batch extension, no dispatch-
      // window decision (there is no lock to reorder around).
      serve_segment(worker, 0);
      return;
    }
    core.accounting().acquisition(worker.spec.slot,
                                  head.op == OpType::kPut);

    // The real worker wraps the shard critical section in epoch_start /
    // epoch_end_with_latency; the twin consumes the same DispatchPolicy and
    // WindowController directly (sim_runner precedent — the feedback loop is
    // production code, only the clock is virtual). The *head* request's
    // class window governs the one dispatch decision the batch shares.
    const std::uint64_t window =
        core.class_state(head.class_index).spec.slo_ns > 0
            ? worker.controllers[head.class_index].window()
            : DispatchPolicy::no_epoch_window();
    const LockPlan plan = DispatchPolicy::plan(worker.spec.type, window);
    const Nanos lock_req_at = eng.now();
    shards[s]->lock->acquire(
        &worker.sim,
        plan.immediate ? sim::AcquireMode::kImmediate
                       : sim::AcquireMode::kReorder,
        plan.window_ns, [this, &worker, s, lock_req_at] {
          touch();
          worker.acquired_at = eng.now();
          core.accounting().lock_wait(worker.spec.slot,
                                      worker.acquired_at - lock_req_at);
          // The kernel's extension at the grant: requests already waiting
          // ride along, one simulated lock handoff amortized over all of
          // them; each still pays its own segment.
          flush_depth(s);
          worker.batch.extend(core.queue(s), [this] { return eng.now(); });
          core.record_batch(s, worker.batch.size());
          serve_segment(worker, 0);
        });
  }

  // Serves batch member i in the kernel's serve order: one segment priced
  // by the kernel, then that request's accounting and controller feedback
  // at the segment's end. The lock is released after the last critical-
  // section member; after the last member, each request's post-op interval
  // elapses before the worker re-dispatches or idles.
  void serve_segment(Worker& worker, std::size_t i) {
    const Batch::Member& m = worker.batch[i];
    const Segment segment = worker.batch.segment(i);
    if (m.req.op == OpType::kGet) {
      if (segment == Segment::kCritical) {
        core.accounting().cs_gets(worker.spec.slot, 1);
      } else {
        core.accounting().lockfree_gets(worker.spec.slot, 1);
      }
    }
    const sim::Time span =
        virtual_ns(worker.spec.type, core.price(m.req.op, segment));
    eng.after(span, [this, &worker, i] {
      touch();
      const Batch& batch = worker.batch;
      const Batch::Member& m = batch[i];
      shards[worker.spec.shard]->stats.completed += 1;
      const Nanos total = core.complete(worker.spec, m, eng.now());
      const Nanos slo = core.class_state(m.req.class_index).spec.slo_ns;
      if (slo > 0 && DispatchPolicy::updates_window(worker.spec.type)) {
        worker.controllers[m.req.class_index].on_epoch_end(total, slo);
      }
      if (i + 1 == batch.cs_count()) {
        core.accounting().lock_hold(worker.spec.slot,
                                    eng.now() - worker.acquired_at);
        shards[worker.spec.shard]->lock->release(&worker.sim);
      }
      if (i + 1 < batch.size()) {
        serve_segment(worker, i + 1);
        return;
      }
      sim::Time post = 0;
      for (std::size_t j = 0; j < batch.size(); ++j) {
        post += virtual_ns(worker.spec.type,
                           core.price(batch[j].req.op, Segment::kPost));
      }
      eng.after(post, [this, &worker] {
        touch();
        if (core.queue(worker.spec.shard).size() > 0) {
          dispatch(worker);
        } else {
          worker.busy = false;
        }
      });
    });
  }

  // Snapshot after run_all(): the core's report, its route fold and the
  // shard stats — shared verbatim by run() and replay() so both emit
  // byte-identical tables for identical executions.
  void collect(SimServiceReport& report) {
    // work_clock, not eng.now(): the last service event defines the drain
    // instant. With telemetry off they are the same clock; with telemetry on
    // a trailing tick event past the drain must not move it.
    report.drained_at = work_clock;
    if (KvTelemetry* telem = core.telemetry()) {
      // The final tick, at the drain instant — the virtual-time twin of the
      // real Sampler's stop()-time fold: it observes empty queues and final
      // counters, so "the sampler sees zero after drain" holds here too.
      telem->fold_tick(work_clock);
      report.telemetry = telem->log();
    }
    for (std::uint32_t s = 0; s < shards.size(); ++s) flush_depth(s);
    // epoch_id stays -1: the twin does not touch the global EpochRegistry.
    report.service = core.report();
    for (const auto& shard : shards) {
      report.shards.push_back(shard->stats);
    }
    report.lock_routes = core.accounting().routes();
  }
};

SimKvService::SimKvService(KvServiceConfig config, SimTwinConfig twin)
    : impl_(new Impl(std::move(config), std::move(twin))) {}

SimKvService::~SimKvService() { delete impl_; }

std::uint32_t SimKvService::shard_of(std::uint64_t key) const {
  return impl_->core.shard_of(key);
}

const KvServiceConfig& SimKvService::config() const {
  return impl_->core.config();
}

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
    if (spec.class_index >= impl_->core.num_classes()) continue;
    for (const TracePoint& p : generate_trace(spec, horizon)) {
      // Admission is instantaneous in virtual time: the enqueue instant is
      // the scheduled arrival (the wall clock stamps slightly after it).
      const Request req{p.is_put ? OpType::kPut : OpType::kGet, p.key,
                        spec.class_index, p.at};
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
  impl_->core.set_recorder(recorder);
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
    if (rec.class_index >= impl_->core.num_classes()) {
      rr.skipped += 1;
      continue;
    }
    const Request req{rec.is_put ? OpType::kPut : OpType::kGet, rec.key,
                      rec.class_index, rec.at};
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
