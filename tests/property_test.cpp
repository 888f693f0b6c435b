// Property-based suites (TEST_P sweeps) over the core invariants:
//  * mutual exclusion for every (lock kind x thread count) combination;
//  * AIMD controller convergence and SLO-tracking for percentile x SLO grids;
//  * simulator conservation laws across lock kinds and thread mixes.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "asl/libasl.h"
#include "asl/window_controller.h"
#include "harness/experiment.h"
#include "locks/any_lock.h"
#include "locks/clh.h"
#include "locks/mcs.h"
#include "locks/pthread_lock.h"
#include "locks/shfl_pb.h"
#include "locks/stp_mcs.h"
#include "locks/tas.h"
#include "locks/tas_backoff.h"
#include "locks/ticket.h"
#include "platform/rng.h"
#include "sim/sim_runner.h"

namespace asl {
namespace {

// ------------------------------------------------ mutual exclusion sweep

AnyLock make_lock(const std::string& name) {
  if (name == "tas") return AnyLock::make<TasLock>();
  if (name == "tas_backoff") return AnyLock::make<TasBackoffLock>();
  if (name == "ticket") return AnyLock::make<TicketLock>();
  if (name == "mcs") return AnyLock::make<McsLock>();
  if (name == "clh") return AnyLock::make<ClhLock>();
  if (name == "pthread") return AnyLock::make<PthreadLock>();
  if (name == "stp_mcs") return AnyLock::make<StpMcsLock>();
  if (name == "shfl_pb") return AnyLock::make<ShflPbLock>();
  if (name == "reorder_mcs") return AnyLock::make<ReorderableLock<McsLock>>();
  if (name == "asl_mcs") return AnyLock::make<AslMutex<McsLock>>();
  ADD_FAILURE() << "unknown lock " << name;
  return {};
}

using ExclusionParam = std::tuple<std::string, int>;  // (lock, threads)

class ExclusionSweep : public ::testing::TestWithParam<ExclusionParam> {};

TEST_P(ExclusionSweep, CounterNeverTorn) {
  const auto& [name, nthreads] = GetParam();
  AnyLock lock = make_lock(name);
  const int iters = 6000 / nthreads;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedCoreType scoped(t % 2 == 0 ? CoreType::kBig : CoreType::kLittle);
      for (int i = 0; i < iters; ++i) {
        lock.lock();
        counter = counter + 1;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(nthreads) * iters);
}

INSTANTIATE_TEST_SUITE_P(
    AllLocks, ExclusionSweep,
    ::testing::Combine(
        ::testing::Values("tas", "tas_backoff", "ticket", "mcs", "clh",
                          "pthread", "stp_mcs", "shfl_pb",
                          "reorder_mcs", "asl_mcs"),
        ::testing::Values(2, 3, 6)),
    [](const ::testing::TestParamInfo<ExclusionParam>& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------- AIMD controller grid

using AimdParam = std::tuple<std::uint32_t, std::uint64_t>;  // (PCT, SLO)

class AimdGrid : public ::testing::TestWithParam<AimdParam> {};

// Property: for a latency function monotone in the window (latency =
// base + window), the controller settles into a band where the achieved
// latency straddles the SLO, for every percentile and SLO scale.
TEST_P(AimdGrid, SettlesIntoSloBand) {
  const auto& [pct, slo] = GetParam();
  WindowController::Config cfg;
  cfg.percentile = pct;
  cfg.initial_window = slo;  // high start (see experiment.h rationale)
  cfg.initial_unit = std::max<std::uint64_t>(slo / 64, 16);
  WindowController ctrl(cfg);
  const std::uint64_t base = slo / 3;  // achievable SLO
  // Drive to steady state.
  for (int i = 0; i < 3000; ++i) {
    ctrl.on_epoch_end(base + ctrl.window(), slo);
  }
  // In steady state the window oscillates in (0.4..1.2]x of the headroom.
  const std::uint64_t headroom = slo - base;
  std::uint64_t max_seen = 0, min_seen = ~0ULL;
  for (int i = 0; i < 500; ++i) {
    ctrl.on_epoch_end(base + ctrl.window(), slo);
    max_seen = std::max(max_seen, ctrl.window());
    min_seen = std::min(min_seen, ctrl.window());
  }
  EXPECT_LE(max_seen, headroom * 12 / 10) << "window overshoots the SLO";
  EXPECT_GE(max_seen, headroom * 4 / 10) << "window leaves headroom unused";
  EXPECT_GE(min_seen, headroom / 4) << "multiplicative decrease too deep";
}

// Property: violation frequency in steady state is approximately
// (100-PCT)/100 — the percentile-targeting design (footnote 4).
TEST_P(AimdGrid, ViolationRateMatchesPercentile) {
  const auto& [pct, slo] = GetParam();
  WindowController::Config cfg;
  cfg.percentile = pct;
  cfg.initial_window = slo / 2;
  cfg.initial_unit = std::max<std::uint64_t>(slo / 64, 16);
  WindowController ctrl(cfg);
  const std::uint64_t base = slo / 3;
  for (int i = 0; i < 2000; ++i) {
    ctrl.on_epoch_end(base + ctrl.window(), slo);
  }
  int violations = 0;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t latency = base + ctrl.window();
    if (latency > slo) ++violations;
    ctrl.on_epoch_end(latency, slo);
  }
  const double rate = static_cast<double>(violations) / kN;
  const double target = (100.0 - pct) / 100.0;
  EXPECT_NEAR(rate, target, target * 0.75 + 0.004)
      << "PCT=" << pct << " slo=" << slo;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AimdGrid,
    ::testing::Combine(::testing::Values(90u, 95u, 99u),
                       ::testing::Values(50'000ULL,      // 50 us
                                         1'000'000ULL,   // 1 ms
                                         100'000'000ULL  // 100 ms
                                         )),
    [](const ::testing::TestParamInfo<AimdParam>& info) {
      return "pct" + std::to_string(std::get<0>(info.param)) + "_slo" +
             std::to_string(std::get<1>(info.param) / 1000) + "us";
    });

// ------------------------------------- randomized AIMD controller invariants

// Drive controllers through 10k randomized feedback steps (latencies from
// one tenth of to ten times the SLO, SLOs across three decades) and check
// the hard invariants after every single step:
//  * the window never drops below min_window (multiplicative decrease is
//    floored) and never exceeds max_window (the SLO-derived cap the config
//    seeds);
//  * under the fixed_unit ablation, every additive-increase step grows the
//    window by exactly the constant unit (or clips at the cap), and the
//    unit itself never changes.
TEST(WindowControllerProperty, RandomizedAimdInvariants) {
  Rng rng(0xA1D);
  for (int variant = 0; variant < 8; ++variant) {
    const bool fixed_unit = (variant % 2) == 1;
    const std::uint64_t slo =
        (std::uint64_t{50} << (variant / 2 * 4)) * 1000;  // 50us .. 200ms-ish
    WindowController::Config cfg;
    cfg.percentile = static_cast<std::uint32_t>(rng.range(50, 99));
    cfg.min_window = rng.range(16, 256);
    cfg.max_window = slo;  // the SLO-derived cap (seed_controller semantics)
    cfg.initial_window = slo;
    cfg.initial_unit = slo / 64 > 16 ? slo / 64 : 16;
    cfg.fixed_unit = fixed_unit;
    WindowController ctrl(cfg);
    const std::uint64_t constant_unit = ctrl.unit();

    for (int i = 0; i < 10'000; ++i) {
      const std::uint64_t before = ctrl.window();
      const std::uint64_t latency = rng.range(slo / 10, slo * 10);
      ctrl.on_epoch_end(latency, slo);
      const std::uint64_t after = ctrl.window();

      ASSERT_GE(after, cfg.min_window) << "variant " << variant << " step " << i;
      ASSERT_LE(after, cfg.max_window) << "variant " << variant << " step " << i;
      if (fixed_unit) {
        ASSERT_EQ(ctrl.unit(), constant_unit)
            << "fixed_unit must pin the growth unit";
        if (latency <= slo) {
          const std::uint64_t expected =
              std::min(before + constant_unit, cfg.max_window);
          ASSERT_EQ(after, expected)
              << "growth steps must be exactly the constant unit";
        }
      } else if (latency > slo) {
        // Re-derived unit stays on the (100-PCT)% of the shrunken window,
        // floored — never zero, so growth cannot stall.
        ASSERT_GE(ctrl.unit(), cfg.min_unit);
      }
    }
  }
}

// ------------------------------------------------- simulator conservation

using SimParam = std::tuple<sim::LockKind, std::uint32_t>;  // (lock, littles)

class SimConservation : public ::testing::TestWithParam<SimParam> {};

// Properties that must hold for every lock model and thread mix:
//  * cs_total == cs_big + cs_little;
//  * identical seeds give identical results;
//  * latency percentiles are monotone (p50 <= p99 <= max).
TEST_P(SimConservation, CountsAndDeterminism) {
  const auto& [kind, littles] = GetParam();
  sim::SimConfig cfg;
  cfg.lock = kind;
  cfg.big_threads = 2;
  cfg.little_threads = littles;
  cfg.warmup = 2 * sim::kMilli;
  cfg.measure = 30 * sim::kMilli;
  auto gen = sim::single_cs_workload(400, 300);
  sim::SimResult a = sim::run_sim(cfg, gen);
  sim::SimResult b = sim::run_sim(cfg, gen);
  EXPECT_EQ(a.cs_total, a.cs_big + a.cs_little);
  EXPECT_GT(a.cs_total, 0u);
  EXPECT_EQ(a.cs_total, b.cs_total);
  EXPECT_EQ(a.latency.p99_overall(), b.latency.p99_overall());
  EXPECT_LE(a.latency.overall().p50(), a.latency.overall().p99());
  EXPECT_LE(a.latency.overall().p99(), a.latency.overall().max());
  if (littles == 0) {
    EXPECT_EQ(a.cs_little, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SimConservation,
    ::testing::Combine(::testing::Values(sim::LockKind::kMcs,
                                         sim::LockKind::kTicket,
                                         sim::LockKind::kTas,
                                         sim::LockKind::kPthread,
                                         sim::LockKind::kStpMcs,
                                         sim::LockKind::kShflPb,
                                         sim::LockKind::kReorderable),
                       ::testing::Values(0u, 2u)),
    [](const ::testing::TestParamInfo<SimParam>& info) {
      std::string name = sim::to_string(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_l" + std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------- SLO tracking across workloads

class SloTracking : public ::testing::TestWithParam<std::uint64_t> {};

// For every achievable SLO, the little-core P99 must land in [SLO/2, 1.3*SLO]
// on the canonical Bench-1 workload (tracking from both sides: not violated,
// not overly conservative).
TEST_P(SloTracking, Bench1LittleP99InBand) {
  const std::uint64_t slo_us = GetParam();
  sim::SimConfig cfg =
      sim::scale_durations(sim::bench1_asl_config(slo_us * sim::kMicro), 0.4);
  sim::SimResult r = sim::run_sim(cfg, sim::bench1_workload());
  EXPECT_LE(r.latency.p99_little(), slo_us * sim::kMicro * 13 / 10);
  EXPECT_GE(r.latency.p99_little(), slo_us * sim::kMicro / 2);
}

INSTANTIATE_TEST_SUITE_P(Slos, SloTracking,
                         ::testing::Values(30u, 45u, 60u, 75u, 90u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "slo" + std::to_string(i.param) + "us";
                         });

}  // namespace
}  // namespace asl
