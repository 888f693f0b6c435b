// kvbench — drives the real KvService open-loop through one of three pinned
// workloads (WORKLOADS.md) and prints its metrics.
//
//   kvbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// A run is made of passes. Each pass builds a fresh service and replays
// one schedule in three phases: a discarded warm-up (the AIMD windows
// settle), a fixed-rate phase (latency) and an overload phase (saturation
// throughput). The 3 workers are pinned to CPUs 0-2 by the service; this
// thread, pinned to the last CPU, replays the merged get+put schedule and
// spin-waits to every due instant (a 1 us sleep costs ~56 us of timer
// slack on the reference host). Every layer is observed from outside,
// through the service's public calls.
//
// --trace 0 runs kPasses passes with telemetry off and prints the
// end-to-end metrics. --trace 1 runs two, telemetry off then on, and prints
// the per-layer metrics of the traced pass plus the cost of observing.
// Output checks run before any metric is printed; a failed check makes the
// last line report "correct": false and the exit code 1.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asl/runtime.h"
#include "bench_math.h"
#include "obs/span_tracer.h"
#include "platform/affinity.h"
#include "platform/rng.h"
#include "platform/time.h"
#include "server/kv_service.h"
#include "server/telemetry.h"
#include "workload/open_loop.h"

namespace perfbench {
namespace {

using asl::kNanosPerMilli;
using asl::kNanosPerSec;
using asl::now_ns;
using asl::server::ClassReport;
using asl::server::KvService;
using asl::server::KvServiceConfig;
using asl::server::LoadSpec;
using asl::server::LockRouteStats;
using asl::server::OpType;
using asl::server::ServiceReport;

constexpr std::uint64_t kKeySpace = 1 << 15;  // every kv_* scenario's
// Per shard. Holds >= 68 ms of fixed-rate arrivals below the put shed mark
// (>= 34 ms on mvcc_write_batch), longer than the reference host's stalls.
constexpr std::size_t kQueueCapacity = 8192;
constexpr std::uint32_t kGet = 0;             // class indices
constexpr std::uint32_t kPut = 1;
// An untraced run is this many passes, each on a fresh service; the
// end-to-end figures pool their windows, so one service's AIMD equilibrium
// does not set the run's figure.
constexpr int kPasses = 3;
// setup_s is the median of the passes' set-ups plus extra ones, up to this
// many samples while the extras stay within kSetupBudget.
constexpr std::size_t kSetupSamples = 9;
constexpr Nanos kSetupBudget = 4 * kNanosPerSec;
constexpr std::uint32_t kSpanEvery = 64;      // traced pass: 1-in-64 heads
constexpr Nanos kSamplePeriod = 100 * kNanosPerMilli;
// The fixed and overload phases are cut into windows of this length; the
// end-to-end latency and throughput are medians over the windows the host
// stole least from, so a host stall that spoils a window does not move the
// run's figure.
constexpr Nanos kWindow = 250 * kNanosPerMilli;
// A window is clean when the host stole at most this share of all CPU time
// in it (2 jiffies of 100 on 4 CPUs); the clean windows alone set a figure
// when there are at least kMinClean of them (2 s of a phase).
constexpr double kCleanSteal = 0.02;
constexpr std::size_t kMinClean = 8;

struct Workload {
  const char* name;
  const char* engine;
  std::uint32_t shards;
  std::uint32_t workers_per_shard;
  std::uint32_t batch_k;
  bool zipf;       // zipfian theta=0.99 keys, else uniform
  bool shed_puts;  // kv-put sheddable with AdmissionPolicy{1, 0.5}
  double put_share;
  double fixed_rps;
  double overload_rps;
};

// Why each exists, and the layer it isolates: WORKLOADS.md.
constexpr Workload kWorkloads[] = {
    {"hash_contended", "hash", 1, 3, 1, false, false, 0.25, 50e3, 250e3},
    {"mvcc_sharded", "mvcc", 3, 1, 1, true, false, 0.10, 40e3, 400e3},
    {"mvcc_write_batch", "mvcc", 1, 3, 4, false, true, 0.50, 60e3, 600e3},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Phase boundaries as offsets from the run's start: [0] warm-up start,
// [1] fixed-rate start, [2] overload start, [3] end. `cuts` holds every
// snapshot offset: the boundaries plus each kWindow step inside the fixed
// and overload phases.
struct Plan {
  Nanos bound[4] = {0, 0, 0, 0};
  std::vector<Nanos> cuts;

  int phase_of(Nanos offset) const {
    return offset >= bound[2] ? 2 : offset >= bound[1] ? 1 : 0;
  }
};

Plan plan_for(double seconds) {
  const auto total = static_cast<Nanos>(seconds * 1e9);
  Plan p;
  p.bound[1] = total / 15;
  p.bound[2] = p.bound[1] + total * 6 / 15;
  p.bound[3] = total;
  p.cuts.push_back(0);
  for (int ph = 1; ph < 3; ++ph) {
    for (Nanos t = p.bound[ph]; t + kWindow / 2 < p.bound[ph + 1]; t += kWindow) {
      p.cuts.push_back(t);
    }
  }
  p.cuts.push_back(total);
  return p;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t segment,
                          std::uint64_t stream) {
  std::uint64_t s = seed ^ (segment << 8) ^ stream;
  return asl::splitmix64(s);
}

// The get and put streams of one schedule segment at `rate` requests/s in
// total; `segment` numbers the segments of a run so each draws its own
// seeds.
std::vector<LoadSpec> segment_specs(const Workload& w, double rate,
                                    std::uint64_t seed, std::uint64_t segment) {
  const asl::workload::KeyDist keys =
      w.zipf ? asl::workload::KeyDist::zipfian(kKeySpace, 0.99)
             : asl::workload::KeyDist::uniform(kKeySpace);
  LoadSpec gets;
  gets.arrivals =
      asl::workload::ArrivalProcess::poisson(rate * (1.0 - w.put_share));
  gets.keys = keys;
  gets.put_fraction = 0.0;
  gets.class_index = kGet;
  gets.seed = derive_seed(seed, segment, 1);
  LoadSpec puts = gets;
  puts.arrivals = asl::workload::ArrivalProcess::poisson(rate * w.put_share);
  puts.put_fraction = 1.0;
  puts.class_index = kPut;
  puts.seed = derive_seed(seed, segment, 2);
  return {gets, puts};
}

// The whole run's schedule, generated in segments of at most one second so
// the generation's temporaries stay small beside the schedule itself.
std::vector<Arrival> build_schedule(const Workload& w, const Plan& plan,
                                    std::uint64_t seed) {
  const auto rate_of = [&](int ph) {
    return ph == 2 ? w.overload_rps : w.fixed_rps;
  };
  double expected = 0.0;
  for (int ph = 0; ph < 3; ++ph) {
    expected += rate_of(ph) *
                static_cast<double>(plan.bound[ph + 1] - plan.bound[ph]) / 1e9;
  }
  std::vector<Arrival> all;
  all.reserve(static_cast<std::size_t>(expected * 1.01) + 1024);
  std::uint64_t segment = 0;
  for (int ph = 0; ph < 3; ++ph) {
    for (Nanos t = plan.bound[ph]; t < plan.bound[ph + 1]; t += kNanosPerSec) {
      const Nanos len = std::min<Nanos>(kNanosPerSec, plan.bound[ph + 1] - t);
      merged_schedule(segment_specs(w, rate_of(ph), seed, segment++), len, t,
                      &all);
    }
  }
  return all;
}

KvServiceConfig service_config(const Workload& w, bool traced,
                               std::size_t span_ring) {
  KvServiceConfig cfg;
  cfg.engine = w.engine;
  cfg.num_shards = w.shards;
  cfg.workers_per_shard = w.workers_per_shard;
  cfg.big_workers = 1;
  cfg.pin_workers = true;  // worker w -> CPU w
  cfg.queue_capacity = kQueueCapacity;
  cfg.batch_k = w.batch_k;
  cfg.prefill_keys = kKeySpace;
  cfg.classes.push_back({"kv-get", 1 * kNanosPerMilli, {}});
  cfg.classes.push_back({"kv-put", 4 * kNanosPerMilli,
                         w.shed_puts ? asl::server::AdmissionPolicy{1, 0.5}
                                     : asl::server::AdmissionPolicy{}});
  if (traced) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.sample_period_ns = kSamplePeriod;
    cfg.telemetry.max_ticks = 4096;
    cfg.telemetry.span_sample_every = kSpanEvery;
    cfg.telemetry.span_ring_capacity = span_ring;
  }
  return cfg;
}

double seconds_since(Nanos t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Steal and total jiffies over all CPUs, from /proc/stat's first line
// (user nice system idle iowait irq softirq steal ...).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ------------------------------------------------------------- one pass

struct Snapshot {
  Nanos at = 0;  // absolute monotonic ns
  CpuTicks cpu;
  ServiceReport report;
  LockRouteStats routes;
  Buckets lock_wait;  // registry folds, traced pass only
  Buckets lock_hold;
};

struct PhaseLoad {
  std::uint64_t offered[2] = {0, 0};   // per class, counted by the generator
  std::uint64_t accepted[2] = {0, 0};  // try_submit returned true
  Histogram late;    // submit instant - due instant
  Histogram submit;  // time inside try_submit
};

// One window of the fixed or overload phase.
struct Window {
  int phase = 0;
  double p50_ns[2] = {0.0, 0.0};  // per class
  double completed_per_s = 0.0;
  double steal_share = 0.0;  // of all CPU time, taken by the hypervisor
};

struct SpanPhases {
  std::vector<double> queue_wait, lock_wait, cs, post;  // ns, fixed phase
  std::uint64_t requests = 0;  // traced heads in the fixed phase

  // Mean per traced head of one phase's durations (0 for an absent phase).
  double per_head(const std::vector<double>& phase) const {
    double sum = 0.0;
    for (double x : phase) sum += x;
    return requests == 0 ? 0.0 : sum / static_cast<double>(requests);
  }
};

struct Pass {
  double setup_s = 0.0;
  double rss_mb = 0.0;
  Snapshot snap[4];
  std::vector<Window> windows;
  PhaseLoad load[3];
  ServiceReport final_report;
  LockRouteStats final_routes;
  std::size_t store_size = 0;
  double window_ns[2] = {0.0, 0.0};  // EpochRegistry mean, fixed phase end
  // Traced pass only.
  std::uint64_t spans_dropped = 0;
  std::uint64_t spans_recorded = 0;
  SpanPhases spans;
  double depth_mean = 0.0;
  double get_p99w_ns = 0.0;
};

std::vector<std::uint64_t> fold_metric(const KvService& service,
                                       std::string_view name) {
  std::vector<std::uint64_t> out(Histogram::kNumBuckets, 0);
  const asl::obs::MetricsRegistry& reg = service.telemetry()->registry();
  for (asl::obs::MetricId id = 0; id < reg.size(); ++id) {
    if (reg.name(id) == name) {
      reg.fold_buckets(id, out.data());
      break;
    }
  }
  return out;
}

Window window_between(int phase, const Snapshot& a, const Snapshot& b) {
  Window w;
  w.phase = phase;
  for (std::uint32_t c = 0; c < 2; ++c) {
    Buckets later = buckets_of(b.report.classes[c].total.overall());
    Buckets delta;
    if (subtract(later, buckets_of(a.report.classes[c].total.overall()), &delta)) {
      w.p50_ns[c] = quantile(delta, 0.5);
    }
  }
  w.completed_per_s = per_second(a.report.total_completed(),
                                 b.report.total_completed(), a.at, b.at);
  if (b.cpu.total > a.cpu.total && b.cpu.steal >= a.cpu.steal) {
    w.steal_share = static_cast<double>(b.cpu.steal - a.cpu.steal) /
                    static_cast<double>(b.cpu.total - a.cpu.total);
  }
  return w;
}

Snapshot take_snapshot(const KvService& service) {
  Snapshot s;
  s.at = now_ns();
  s.cpu = read_cpu_ticks();
  s.report = service.report();
  s.routes = service.lock_route_stats();
  if (service.telemetry() != nullptr) {
    s.lock_wait = buckets_of_fold(fold_metric(service, "lock.wait_ns"));
    s.lock_hold = buckets_of_fold(fold_metric(service, "lock.hold_ns"));
  }
  return s;
}

// Spans of traced heads whose queue wait began inside [t0, t1). Each worker
// records a head's phases back to back in its own ring, queue-wait first,
// so a queue-wait span opens the next request's group.
SpanPhases fixed_phase_spans(const std::vector<asl::obs::Span>& spans,
                             Nanos t0, Nanos t1) {
  SpanPhases out;
  bool in_window = false;
  for (const asl::obs::Span& s : spans) {
    const auto dur = static_cast<double>(s.dur);
    if (s.phase == asl::obs::SpanPhase::kQueueWait) {
      in_window = s.start >= t0 && s.start < t1;
      if (in_window) out.requests += 1;
    }
    if (!in_window) continue;
    switch (s.phase) {
      case asl::obs::SpanPhase::kQueueWait: out.queue_wait.push_back(dur); break;
      case asl::obs::SpanPhase::kLockWait: out.lock_wait.push_back(dur); break;
      case asl::obs::SpanPhase::kCriticalSection: out.cs.push_back(dur); break;
      case asl::obs::SpanPhase::kPostSection: out.post.push_back(dur); break;
    }
  }
  return out;
}

// Appends the values of a series' points whose time falls in [t0, t1)
// (telemetry time axis).
void series_window(const asl::obs::TimeSeriesLog& log, const std::string& name,
                   Nanos t0, Nanos t1, std::vector<double>* out) {
  const asl::TimeSeries* s = log.find(name);
  if (s == nullptr) return;
  for (const asl::TimeSeries::Point& p : s->points()) {
    if (p.t >= t0 && p.t < t1) out->push_back(static_cast<double>(p.v));
  }
}

void write_outputs(const KvService& service, const std::string& out_dir) {
  if (out_dir.empty()) return;
  const asl::server::KvTelemetry& tel = *service.telemetry();
  std::ofstream spans(out_dir + "/spans.json");
  tel.tracer().write_chrome_trace(spans, service.telemetry_epoch_ns());
  std::ofstream csv(out_dir + "/series.csv");
  tel.log().table().print_csv(csv);
}

// Mean reorder window per class across the workers, as the fixed phase
// ends. Windows live only on live threads, so this must precede stop().
void read_windows(const KvService& service, Pass* pass) {
  for (const asl::EpochSnapshot& e : asl::EpochRegistry::instance().snapshot()) {
    for (std::uint32_t c = 0; c < 2; ++c) {
      if (e.id == service.epoch_id(c)) pass->window_ns[c] = e.window_mean;
    }
  }
}

Pass run_pass(const Workload& w, const Plan& plan,
              const std::vector<Arrival>& schedule, bool traced,
              const std::string& out_dir) {
  Pass pass;
  // Worst case every sampled head lands on one worker with 4 spans each.
  const std::size_t span_ring = 4 * (schedule.size() / kSpanEvery + 1);
  // Hand freed heap back first, so the service's memory shows up as new
  // resident pages instead of reusing what earlier allocations left behind.
  malloc_trim(0);
  const double rss0 = rss_mb();
  const Nanos t_setup = now_ns();
  KvService service(service_config(w, traced, span_ring));
  service.start();
  pass.setup_s = seconds_since(t_setup);

  const Nanos start = now_ns() + kNanosPerMilli;  // schedule offset 0
  pass.windows.reserve(plan.cuts.size());
  Snapshot prev = take_snapshot(service);
  pass.snap[0] = prev;
  std::size_t next = 1;  // next cut to snapshot
  // Snapshots are taken between submissions, at their instants; only the
  // phase boundaries and the previous cut are kept, so window statistics
  // hold no more memory than two reports.
  auto cross_cuts = [&](Nanos offset) {
    while (next < plan.cuts.size() && offset >= plan.cuts[next]) {
      asl::spin_until(start + plan.cuts[next]);
      Snapshot s = take_snapshot(service);
      const int ph = plan.phase_of(plan.cuts[next - 1]);
      if (ph > 0) pass.windows.push_back(window_between(ph, prev, s));
      for (int b = 1; b < 4; ++b) {
        if (plan.cuts[next] == plan.bound[b]) pass.snap[b] = s;
      }
      if (plan.cuts[next] == plan.bound[2]) read_windows(service, &pass);
      prev = std::move(s);
      ++next;
    }
  };
  for (const Arrival& a : schedule) {
    cross_cuts(a.at);
    const Nanos due = start + a.at;
    const Nanos t0 = asl::spin_until(due);
    const bool ok = service.try_submit(a.is_put ? OpType::kPut : OpType::kGet,
                                       a.key, a.class_index);
    const Nanos t1 = now_ns();
    PhaseLoad& load = pass.load[plan.phase_of(a.at)];
    load.late.record(t0 - due);
    load.submit.record(t1 - t0);
    load.offered[a.class_index] += 1;
    if (ok) load.accepted[a.class_index] += 1;
  }
  cross_cuts(plan.bound[3]);
  pass.rss_mb = rss_mb() - rss0;

  service.stop();
  pass.final_report = service.report();
  pass.final_routes = service.lock_route_stats();
  pass.store_size = service.store_size();

  if (traced) {
    const asl::server::KvTelemetry& tel = *service.telemetry();
    const Nanos f0 = pass.snap[1].at, f1 = pass.snap[2].at;
    pass.spans_dropped = tel.tracer().dropped();
    pass.spans_recorded = tel.tracer().recorded();
    pass.spans = fixed_phase_spans(tel.tracer().collect(), f0, f1);
    const Nanos epoch = service.telemetry_epoch_ns();
    const Nanos r0 = f0 > epoch ? f0 - epoch : 0;
    const Nanos r1 = f1 > epoch ? f1 - epoch : 0;
    std::vector<double> depth, p99w;
    for (std::uint32_t s = 0; s < w.shards; ++s) {
      series_window(tel.log(), "shard." + std::to_string(s) + ".depth", r0, r1,
                    &depth);
    }
    series_window(tel.log(), "class.kv-get.p99_ns", r0, r1, &p99w);
    double sum = 0.0;
    for (double d : depth) sum += d;
    pass.depth_mean = depth.empty() ? 0.0 : sum / static_cast<double>(depth.size());
    pass.get_p99w_ns = sample_quantile(p99w, 0.5);
    write_outputs(service, out_dir);
  }
  return pass;
}

// ------------------------------------------------------- checks, metrics

struct Checks {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), cond ? "PASS" : "FAIL");
    ok = ok && cond;
  }
};

const char* kPhaseName[3] = {"warmup", "fixed", "overload"};
const char* kClassName[2] = {"get", "put"};

// Delta of one class over phase ph (between snapshots ph and ph+1).
ClassDelta phase_class(const Pass& p, int ph, std::uint32_t c, Checks* chk) {
  ClassDelta d;
  const bool ok = class_delta(p.snap[ph].report.classes[c],
                              p.snap[ph + 1].report.classes[c], &d);
  if (!ok) {
    chk->expect(false, std::string(kPhaseName[ph]) + " " + kClassName[c] +
                           " snapshots are monotone");
  }
  return d;
}

void check_pass(const Workload& w, const Pass& p, const char* label,
                Checks* chk) {
  const std::string tag = std::string(label) + ": ";
  for (int ph = 0; ph < 3; ++ph) {
    for (std::uint32_t c = 0; c < 2; ++c) {
      const ClassDelta d = phase_class(p, ph, c, chk);
      const std::string where =
          tag + kPhaseName[ph] + " " + kClassName[c] + " ";
      chk->expect(p.load[ph].offered[c] == d.accepted + d.rejected,
                  where + "offered == accepted + refused");
      chk->expect(p.load[ph].accepted[c] == d.accepted,
                  where + "admitted == service accepted");
      chk->expect(d.shed <= d.rejected, where + "shed <= refused");
      if (ph > 0) chk->expect(d.completed > 0, where + "completions > 0");
    }
  }
  for (std::uint32_t c = 0; c < 2; ++c) {
    const ClassReport& r = p.final_report.classes[c];
    chk->expect(r.completed == r.accepted,
                tag + kClassName[c] + " completed == accepted after stop()");
  }
  const bool mvcc = std::string_view(w.engine) == "mvcc";
  if (mvcc) {
    chk->expect(p.final_routes.get_route_acquires == 0 &&
                    p.final_routes.cs_gets == 0,
                tag + "mvcc gets never take the shard lock");
  } else {
    chk->expect(p.final_routes.lockfree_gets == 0,
                tag + "hash gets are all served under the lock");
  }
  chk->expect(p.store_size == kKeySpace, tag + "store_size() == 2^15");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Median of `field` over the phase-`ph` windows of every pass that the host
// stole least from (median_of_least_stolen).
template <typename Field>
double window_median(std::span<const Pass> passes, int ph, Field field) {
  std::vector<double> values, steal;
  for (const Pass& p : passes) {
    for (const Window& w : p.windows) {
      if (w.phase != ph) continue;
      values.push_back(field(w));
      steal.push_back(w.steal_share);
    }
  }
  return median_of_least_stolen(values, steal, kCleanSteal, kMinClean);
}

double fixed_p50_us(std::span<const Pass> passes, std::uint32_t c) {
  return window_median(passes, 1,
                       [c](const Window& w) { return w.p50_ns[c]; }) / 1e3;
}

double overload_rps(std::span<const Pass> passes) {
  return window_median(passes, 2,
                       [](const Window& w) { return w.completed_per_s; });
}

double median_of(std::span<const Pass> passes, double Pass::*field) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.*field);
  return sample_quantile(v, 0.5);
}

// Median set-up time: the passes' set-ups, then extra construct + start()
// cycles on the same configuration while samples and budget last.
double setup_median(const Workload& w, std::span<const Pass> passes) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.setup_s);
  const Nanos t0 = now_ns();
  while (v.size() < kSetupSamples && now_ns() - t0 < kSetupBudget) {
    const Nanos t = now_ns();
    KvService service(service_config(w, false, 0));
    service.start();
    v.push_back(seconds_since(t));
  }
  return sample_quantile(v, 0.5);
}

double pct_change(double base, double x) {
  return base == 0.0 ? 0.0 : 100.0 * (x - base) / base;
}

std::vector<Metric> end_to_end(std::span<const Pass> passes, double setup_s) {
  return {
      {"get_p50_us", fixed_p50_us(passes, kGet), "us"},
      {"put_p50_us", fixed_p50_us(passes, kPut), "us"},
      {"sat_rps", overload_rps(passes), "1/s"},
      {"setup_s", setup_s, "s"},
      {"rss_mb", median_of(passes, &Pass::rss_mb), "MB"},
  };
}

std::vector<Metric> per_layer(const Pass& base, const Pass& p, Checks* chk) {
  const ClassDelta get = phase_class(p, 1, kGet, chk);
  const ClassDelta put = phase_class(p, 1, kPut, chk);
  const Buckets late = buckets_of(p.load[1].late);
  const Buckets submit = buckets_of(p.load[1].submit);
  Buckets wait, hold;
  chk->expect(subtract(p.snap[2].lock_wait, p.snap[1].lock_wait, &wait) &&
                  subtract(p.snap[2].lock_hold, p.snap[1].lock_hold, &hold),
              "traced: lock histograms are monotone");

  const LockRouteStats& r1 = p.snap[1].routes;
  const LockRouteStats& r2 = p.snap[2].routes;
  const LockRouteStats& r3 = p.snap[3].routes;
  const auto acquires = [](const LockRouteStats& r) {
    return static_cast<double>(r.get_route_acquires + r.put_route_acquires);
  };
  const double fixed_done = static_cast<double>(get.completed + put.completed);
  const double over_done = static_cast<double>(
      p.snap[3].report.total_completed() - p.snap[2].report.total_completed());
  const double over_acq = acquires(r3) - acquires(r2);
  // Ops executed inside a critical section per acquisition: every op on a
  // locked engine, only the puts on the mvcc lock-free route.
  const double over_cs_ops =
      over_done - static_cast<double>(r3.lockfree_gets - r2.lockfree_gets);

  std::uint64_t refused = 0, shed = 0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    const ClassDelta d = phase_class(p, 2, c, chk);
    refused += d.rejected;
    shed += d.shed;
  }

  SpanPhases sp = p.spans;
  const double e2e_mean = (get.latency.sum + put.latency.sum) / fixed_done;
  const double span_mean = sp.per_head(sp.queue_wait) +
                           sp.per_head(sp.lock_wait) + sp.per_head(sp.cs) +
                           sp.per_head(sp.post);

  return {
      {"workload.late_p50_us", quantile(late, 0.5) / 1e3, "us"},
      {"workload.late_p99_us", quantile(late, 0.99) / 1e3, "us"},
      {"server.submit_p50_ns", quantile(submit, 0.5), "ns"},
      {"server.submit_p99_ns", quantile(submit, 0.99), "ns"},
      {"server.queue_wait_p50_us", quantile(get.queue_wait, 0.5) / 1e3, "us"},
      {"server.queue_wait_p99_us", quantile(get.queue_wait, 0.99) / 1e3, "us"},
      {"server.depth_mean", p.depth_mean, "count"},
      {"server.post_p50_us", sample_quantile(sp.post, 0.5) / 1e3, "us"},
      {"server.batch_mean", over_acq == 0.0 ? 0.0 : over_cs_ops / over_acq,
       "count"},
      {"server.refused_overload", static_cast<double>(refused), "count"},
      {"server.shed_overload", static_cast<double>(shed), "count"},
      {"asl.lock_wait_p50_us", quantile(wait, 0.5) / 1e3, "us"},
      {"asl.lock_wait_p99_us", quantile(wait, 0.99) / 1e3, "us"},
      {"asl.lock_hold_p50_us", quantile(hold, 0.5) / 1e3, "us"},
      {"asl.lock_hold_p99_us", quantile(hold, 0.99) / 1e3, "us"},
      {"asl.acquires_per_op", (acquires(r2) - acquires(r1)) / fixed_done,
       "count"},
      {"asl.window_get_us", p.window_ns[kGet] / 1e3, "us"},
      {"asl.window_put_us", p.window_ns[kPut] / 1e3, "us"},
      {"db.cs_p50_us", sample_quantile(sp.cs, 0.5) / 1e3, "us"},
      {"db.cs_p99_us", sample_quantile(sp.cs, 0.99) / 1e3, "us"},
      {"obs.span_coverage", e2e_mean == 0.0 ? 0.0 : span_mean / e2e_mean,
       "ratio"},
      {"obs.overhead_get_p50_pct",
       pct_change(fixed_p50_us({&base, 1}, kGet), fixed_p50_us({&p, 1}, kGet)),
       "%"},
      {"obs.overhead_sat_pct",
       -pct_change(overload_rps({&base, 1}), overload_rps({&p, 1})),
       "%"},
      {"obs.spans_dropped", static_cast<double>(p.spans_dropped), "count"},
      {"tail.get_p99_us", quantile(get.latency, 0.99) / 1e3, "us"},
      {"tail.put_p99_us", quantile(put.latency, 0.99) / 1e3, "us"},
      {"tail.get_samples", static_cast<double>(get.completed), "count"},
      {"tail.put_samples", static_cast<double>(put.completed), "count"},
      {"tail.get_p99w_us", p.get_p99w_ns / 1e3, "us"},
  };
}

// The whole fixed phase's end-to-end latency histogram of class c.
Buckets buckets_of_delta(const Pass& p, std::uint32_t c) {
  ClassDelta d;
  class_delta(p.snap[1].report.classes[c], p.snap[2].report.classes[c], &d);
  return d.latency;
}

// Context printed beside the metrics: generator lag and fixed-phase counts
// of a pass, so a reader can tell whether the run measured the program.
void print_pass_info(const char* label, const Pass& p) {
  for (int ph = 0; ph < 3; ++ph) {
    const Buckets late = buckets_of(p.load[ph].late);
    std::printf(
        "info %s %-8s offered get=%" PRIu64 " put=%" PRIu64
        " late_p50_us=%.3f late_p99_us=%.3f\n",
        label, kPhaseName[ph], p.load[ph].offered[kGet],
        p.load[ph].offered[kPut], quantile(late, 0.5) / 1e3,
        quantile(late, 0.99) / 1e3);
  }
  for (int ph = 1; ph < 3; ++ph) {
    std::printf("info %s %s windows:", label, kPhaseName[ph]);
    for (const Window& w : p.windows) {
      if (w.phase != ph) continue;
      if (ph == 1) std::printf(" %.2f/%.2f", w.p50_ns[kGet] / 1e3, w.p50_ns[kPut] / 1e3);
      else std::printf(" %.0f", w.completed_per_s);
      std::printf("@%.1f%%", 100.0 * w.steal_share);
    }
    std::printf(ph == 1 ? " (get/put p50 us @ host steal)\n"
                        : " (completions/s @ host steal)\n");
  }
  std::printf("info %s setup_s=%.4f rss_mb=%.2f whole-phase get_p50_us=%.3f "
              "put_p50_us=%.3f sat_rps=%.1f\n",
              label, p.setup_s, p.rss_mb,
              quantile(buckets_of_delta(p, kGet), 0.5) / 1e3,
              quantile(buckets_of_delta(p, kPut), 0.5) / 1e3,
              per_second(p.snap[2].report.total_completed(),
                         p.snap[3].report.total_completed(), p.snap[2].at,
                         p.snap[3].at));
}

void print_span_info(const Pass& p) {
  const SpanPhases& sp = p.spans;
  std::printf(
      "info traced fixed-phase heads=%" PRIu64
      " mean per head (us): queue_wait=%.3f lock_wait=%.3f cs=%.3f "
      "post=%.3f; spans recorded=%" PRIu64 " dropped=%" PRIu64 "\n",
      sp.requests, sp.per_head(sp.queue_wait) / 1e3,
      sp.per_head(sp.lock_wait) / 1e3, sp.per_head(sp.cs) / 1e3,
      sp.per_head(sp.post) / 1e3, p.spans_recorded, p.spans_dropped);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "kvbench: %s\nusage: kvbench --workload "
               "hash_contended|mvcc_sharded|mvcc_write_batch --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  if (argc % 2 == 0) return usage("every option takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val, nullptr);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--out") out_dir = val;
    else return usage("unknown option");
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("unknown --workload");
  if (!(seconds >= 1.0 && seconds <= 120.0)) return usage("bad --seconds");
  if (trace != 0 && trace != 1) return usage("bad --trace");

  const std::uint32_t cpus = asl::online_cpus();
  const std::uint32_t workers = w->shards * w->workers_per_shard;
  std::printf("info workload=%s seed=%" PRIu64 " seconds=%.3f trace=%d "
              "workers=%u generator_cpu=%u nproc=%u\n",
              w->name, seed, seconds, trace, workers, cpus - 1, cpus);
  asl::pin_to_cpu(cpus - 1);
  const CpuTicks host0 = read_cpu_ticks();

  // Untraced: kPasses passes share the seconds; traced: an untraced and a
  // traced pass share them. Every pass replays the same schedule.
  const Plan plan = plan_for(seconds / (trace == 0 ? kPasses : 2));
  const std::vector<Arrival> schedule = build_schedule(*w, plan, seed);

  Checks chk;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  const auto count_fixed = [&](const Pass& p) {
    for (std::uint32_t c = 0; c < 2; ++c) {
      attempted += p.load[1].offered[c];
      failed += p.load[1].offered[c] - p.load[1].accepted[c];
    }
  };
  if (trace == 0) {
    std::vector<Pass> passes;
    for (int i = 0; i < kPasses; ++i) {
      passes.push_back(run_pass(*w, plan, schedule, false, ""));
    }
    for (int i = 0; i < kPasses; ++i) {
      const std::string label = "pass" + std::to_string(i + 1);
      print_pass_info(label.c_str(), passes[i]);
      check_pass(*w, passes[i], label.c_str(), &chk);
      count_fixed(passes[i]);
    }
    metrics = end_to_end(passes, setup_median(*w, passes));
  } else {
    const Pass base = run_pass(*w, plan, schedule, false, "");
    const Pass p = run_pass(*w, plan, schedule, true, out_dir);
    print_pass_info("untraced", base);
    print_pass_info("traced", p);
    print_span_info(p);
    check_pass(*w, base, "untraced", &chk);
    check_pass(*w, p, "traced", &chk);
    chk.expect(p.spans_dropped == 0, "traced: obs.spans_dropped == 0");
    metrics = per_layer(base, p, &chk);
    count_fixed(p);
  }
  for (const Metric& m : metrics) {
    chk.expect(std::isfinite(m.value), "metric " + m.name + " is finite");
  }

  const CpuTicks host1 = read_cpu_ticks();
  const std::uint64_t steal = host1.steal - host0.steal;
  const std::uint64_t ticks = std::max<std::uint64_t>(1, host1.total - host0.total);
  std::printf("host nproc=%u cpu_model=\"%s\" steal_ticks=%" PRIu64
              " steal_pct=%.2f seed=%" PRIu64 "\n",
              cpus, cpu_model().c_str(), steal,
              100.0 * static_cast<double>(steal) / static_cast<double>(ticks),
              seed);
  std::printf("failed %" PRIu64 " of %" PRIu64
              " fixed-phase submissions (hard rejections + sheds)\n",
              failed, attempted);
  std::string json = "{\"correct\": ";
  json += chk.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("metric %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? json_number(m.value) : "0") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return chk.ok ? 0 : 1;
}
