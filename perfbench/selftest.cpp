// kvbench_selftest — checks the benchmark's own arithmetic (bench_math.h)
// on synthetic inputs: bucket recovery from a Histogram, histogram deltas
// between report() snapshots (so the warm-up is excluded), interpolated
// quantiles, completions per second across phase boundaries, and the
// merged single-thread schedule. Exit code 0 iff every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_math.h"
#include "platform/rng.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void buckets_round_trip() {
  Histogram h;
  asl::Rng rng(7);
  std::vector<std::uint64_t> want(Histogram::kNumBuckets, 0);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.below(5'000'000);
    h.record(v);
    want[Histogram::bucket_index(v)] += 1;
    sum += static_cast<double>(v);
  }
  const Buckets b = buckets_of(h);
  expect(b.counts == want, "buckets_of recovers every bucket count");
  expect(b.total == 100000, "buckets_of total");
  expect(near(b.sum, sum, 1.0), "buckets_of sum");
  expect(buckets_of(Histogram{}).total == 0, "empty histogram has no buckets");
}

void quantile_interpolates() {
  Buckets empty;
  expect(quantile(empty, 0.5) == 0.0, "empty quantile is 0");

  // Values below 64 have one bucket each: 1..100 of each of 10..19.
  Histogram h;
  for (std::uint64_t v = 10; v < 20; ++v) h.record_n(v, 100);
  const Buckets b = buckets_of(h);
  expect(near(quantile(b, 0.5), 15.0, 1e-9), "p50 at the bucket boundary");
  expect(near(quantile(b, 0.05), 10.5, 1e-9), "interpolates inside a bucket");
  expect(near(quantile(b, 1.0), 20.0, 1e-9), "p100 is the top bucket's end");

  // A uniform sample over a wide range: interpolation lands within one
  // bucket width (1/64 relative) of the exact order statistic.
  Histogram u;
  for (std::uint64_t v = 10'000; v < 20'000; ++v) u.record(v);
  const Buckets ub = buckets_of(u);
  expect(near(quantile(ub, 0.5), 15'000.0, 15'000.0 / 64),
         "uniform p50 within a bucket width");
  expect(near(quantile(ub, 0.99), 19'900.0, 19'900.0 / 64),
         "uniform p99 within a bucket width");
  double prev = 0.0;
  bool monotone = true;
  for (int i = 0; i <= 100; ++i) {
    const double x = quantile(ub, i / 100.0);
    monotone = monotone && x >= prev;
    prev = x;
  }
  expect(monotone, "quantile is monotone in q");

  std::vector<double> s{4.0, 1.0, 3.0, 2.0};
  expect(near(sample_quantile(s, 0.5), 2.5, 1e-12), "sample median");
  std::vector<double> none;
  expect(sample_quantile(none, 0.5) == 0.0, "empty sample quantile");

  // Windows 3 and 4 lost their CPUs to the host: they are dropped.
  const std::vector<double> values{10.0, 11.0, 12.0, 50.0, 60.0};
  const std::vector<double> steal{0.0, 0.01, 0.0, 0.2, 0.1};
  expect(near(median_of_least_stolen(values, steal, 0.02, 3), 11.0, 1e-12),
         "clean windows only, when there are enough");
  // The cap keeps more than the less stolen half when more are clean.
  expect(near(median_of_least_stolen({10.0, 11.0, 12.0, 13.0, 90.0, 95.0},
                                     {0.0, 0.0, 0.01, 0.015, 0.5, 0.5}, 0.02, 3),
              11.5, 1e-12),
         "every clean window counts");
  // Too few clean windows: the less stolen half (steal <= median 0.01).
  expect(near(median_of_least_stolen(values, steal, 0.0, 3), 11.0, 1e-12),
         "falls back to the less stolen half");
  expect(near(median_of_least_stolen(values, {0.3, 0.3, 0.1, 0.2, 0.1}, 0.02, 1),
              50.0, 1e-12),
         "every window stolen: the less stolen half");
  // Even steal keeps every window.
  expect(near(median_of_least_stolen(values, {0.0, 0.0, 0.0, 0.0, 0.0}, 0.02, 3),
              12.0, 1e-12),
         "even steal keeps every window");
  expect(median_of_least_stolen({}, {}, 0.02, 3) == 0.0, "no windows");
}

// Three cumulative report() snapshots of one class: after a slow warm-up
// (100 us requests), after a fast fixed phase (10-20 us requests), after an
// overload phase. The fixed-phase delta must see only fixed-phase requests.
void deltas_exclude_warmup() {
  asl::server::ClassReport a, b, c;
  for (int i = 0; i < 500; ++i) {
    a.total.record(asl::CoreType::kBig, 100'000);
    a.queue_wait.record(90'000);
  }
  a.accepted = a.completed = 500;
  a.rejected = 3;
  b = a;
  double fixed_sum = 0.0;
  for (std::uint64_t v = 10'000; v < 20'000; v += 10) {
    b.total.record(v % 20 == 0 ? asl::CoreType::kBig : asl::CoreType::kLittle, v);
    b.queue_wait.record(v / 2);
    fixed_sum += static_cast<double>(v);
  }
  b.accepted = b.completed = 1500;
  b.rejected = 3;
  c = b;
  c.accepted = 9000;
  c.completed = 7000;
  c.rejected = 40003;
  c.shed = 2000;

  ClassDelta d;
  expect(class_delta(a, b, &d), "fixed-phase delta is valid");
  expect(d.completed == 1000 && d.accepted == 1000 && d.rejected == 0,
         "fixed-phase counters");
  expect(d.latency.total == 1000, "fixed-phase histogram holds 1000 samples");
  expect(near(d.latency.sum, fixed_sum, 1e-3),
         "fixed-phase sum excludes the warm-up");
  expect(near(quantile(d.latency, 0.5), 15'000.0, 15'000.0 / 64),
         "fixed-phase p50 excludes the warm-up");
  expect(quantile(d.latency, 1.0) < 21'000.0,
         "no warm-up sample in the fixed-phase max");
  expect(d.latency.counts[Histogram::bucket_index(100'000)] == 0,
         "no warm-up sample left in the fixed-phase buckets");
  expect(near(quantile(d.queue_wait, 0.5), 7'500.0, 7'500.0 / 64),
         "queue-wait delta");

  ClassDelta o;
  expect(class_delta(b, c, &o), "overload delta is valid");
  expect(o.rejected == 40000 && o.shed == 2000 && o.completed == 5500,
         "overload counters");
  ClassDelta bad;
  expect(!class_delta(b, a, &bad), "a shrinking snapshot is refused");

  // Completions per second across boundaries taken 2.5 s apart.
  expect(near(per_second(b.completed, c.completed, 1'000'000'000,
                         3'500'000'000),
              2200.0, 1e-9),
         "completions per second across a phase");
  expect(per_second(5, 9, 10, 10) == 0.0, "zero-length phase has no rate");
  expect(per_second(9, 5, 0, 10) == 0.0, "a backwards counter has no rate");
}

void registry_fold_delta() {
  std::vector<std::uint64_t> f0(Histogram::kNumBuckets, 0), f1;
  f0[Histogram::bucket_index(300)] = 5;
  f1 = f0;
  f1[Histogram::bucket_index(5'000)] += 10;
  Buckets d;
  expect(subtract(buckets_of_fold(f1), buckets_of_fold(f0), &d) &&
             d.total == 10,
         "registry fold delta");
  expect(quantile(d, 0.5) > 4'900.0 && quantile(d, 0.5) < 5'100.0,
         "registry fold quantile");
}

void merged_schedule_is_exact() {
  using asl::server::LoadSpec;
  // The slowest stream comes first, so its arrivals must move back.
  std::vector<LoadSpec> specs(3);
  specs[0].arrivals = asl::workload::ArrivalProcess::bursty(5'000);
  specs[0].keys = asl::workload::KeyDist::zipfian(1 << 12);
  specs[0].put_fraction = 0.3;
  specs[0].class_index = 0;
  specs[0].seed = 11;
  specs[1].arrivals = asl::workload::ArrivalProcess::poisson(30'000);
  specs[1].put_fraction = 0.0;
  specs[1].class_index = 1;
  specs[1].seed = 12;
  specs[2].arrivals = asl::workload::ArrivalProcess::poisson(10'000);
  specs[2].put_fraction = 1.0;
  specs[2].class_index = 2;
  specs[2].seed = 13;
  const Nanos horizon = 200 * asl::kNanosPerMilli;
  const Nanos offset = 7 * asl::kNanosPerSec;

  std::vector<Arrival> merged;
  merged_schedule(specs, horizon, offset, &merged);
  bool ordered = true;
  for (std::size_t i = 1; i < merged.size(); ++i) {
    ordered = ordered && merged[i - 1].at <= merged[i].at;
  }
  expect(ordered, "merged schedule is time-ordered");

  std::size_t expected_size = 0;
  bool exact = true;
  for (const LoadSpec& spec : specs) {
    const std::vector<asl::server::TracePoint> want =
        asl::server::generate_trace(spec, horizon);
    expected_size += want.size();
    std::size_t k = 0;
    for (const Arrival& a : merged) {
      if (a.class_index != spec.class_index) continue;
      exact = exact && k < want.size() && a.at == offset + want[k].at &&
              a.key == want[k].key && a.is_put == want[k].is_put;
      ++k;
    }
    exact = exact && k == want.size();
  }
  expect(exact, "merged schedule holds exactly each spec's arrivals");
  expect(merged.size() == expected_size, "merged schedule size");
  expect(merged.front().at >= offset && merged.back().at < offset + horizon,
         "merged schedule stays inside [offset, offset + horizon)");

  // A second segment appends after the first and leaves it untouched.
  const std::vector<Arrival> first = merged;
  merged_schedule(specs, horizon, offset + horizon, &merged);
  expect(merged.size() == 2 * first.size() &&
             std::equal(first.begin(), first.end(), merged.begin(),
                        [](const Arrival& x, const Arrival& y) {
                          return x.at == y.at && x.key == y.key;
                        }) &&
             merged[first.size()].at >= offset + horizon,
         "a second segment appends in order");
  bool threw = false;
  specs[0].keys = asl::workload::KeyDist::uniform(1ULL << 33);
  try {
    merged_schedule(specs, horizon, 0, &merged);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  expect(threw, "keys wider than 32 bits are refused");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::buckets_round_trip();
  perfbench::quantile_interpolates();
  perfbench::deltas_exclude_warmup();
  perfbench::registry_fold_delta();
  perfbench::merged_schedule_is_exact();
  std::printf("selftest: %s (%d failures)\n",
              perfbench::g_failures == 0 ? "PASS" : "FAIL",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
