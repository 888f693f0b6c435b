// Real-thread harness tests: worker roles, fixed-duration runs, latency
// split accounting, workload helpers, shape-check reporting.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

#include "stats/latency_split.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "workload/cs_workload.h"

namespace asl {
namespace {

TEST(LatencySplit, RoutesByCore) {
  LatencySplit split;
  split.record(CoreType::kBig, 100);
  split.record(CoreType::kLittle, 2000);
  EXPECT_EQ(split.overall().count(), 2u);
  EXPECT_EQ(split.big().count(), 1u);
  EXPECT_EQ(split.little().count(), 1u);
  EXPECT_LT(split.p99_big(), split.p99_little());
}

TEST(LatencySplit, MergeAccumulates) {
  LatencySplit a, b;
  a.record(CoreType::kBig, 10);
  b.record(CoreType::kBig, 20);
  b.record(CoreType::kLittle, 30);
  a.merge(b);
  EXPECT_EQ(a.overall().count(), 3u);
  EXPECT_EQ(a.big().count(), 2u);
  EXPECT_EQ(a.little().count(), 1u);
}

TEST(M1Layout, FourBigThenLittle) {
  auto roles = m1_layout(8);
  ASSERT_EQ(roles.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(roles[i].type, CoreType::kBig) << i;
  }
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(roles[i].type, CoreType::kLittle) << i;
    EXPECT_GT(roles[i].speed.cs_scale, 1.0);
  }
}

TEST(M1Layout, FewThreadsAllBig) {
  auto roles = m1_layout(3);
  ASSERT_EQ(roles.size(), 3u);
  for (const auto& r : roles) EXPECT_EQ(r.type, CoreType::kBig);
}

TEST(SharedRegion, RmwTouchesRequestedLines) {
  SharedRegion region(8);
  region.rmw(0, 4, 3);  // lines 0..3, three times
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(region.line_value(i), 3u);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(region.line_value(i), 0u);
}

TEST(SharedRegion, RmwWrapsAround) {
  SharedRegion region(4);
  region.rmw(3, 2, 1);  // lines 3 and 0
  EXPECT_EQ(region.line_value(3), 1u);
  EXPECT_EQ(region.line_value(0), 1u);
}

TEST(SpeedFactors, ScalesWork) {
  SpeedFactors little = SpeedFactors::little(3.5, 1.8);
  EXPECT_EQ(little.scale_cs(100), 350u);
  EXPECT_EQ(little.scale_ncs(100), 180u);
  SpeedFactors big = SpeedFactors::big();
  EXPECT_EQ(big.scale_cs(100), 100u);
}

TEST(Runner, RunsForApproxDuration) {
  auto roles = m1_layout(2);
  const Nanos duration = 50 * kNanosPerMilli;
  RunStats stats = run_fixed_duration(
      roles, duration, [](const WorkerCtx&) -> WorkerBody {
        return [](WorkerCtx& ctx) {
          spin_nops(1000);
          ctx.ops += 1;
        };
      });
  EXPECT_GE(stats.elapsed, duration);
  EXPECT_LT(stats.elapsed, duration * 10);  // generous: CI jitter
  EXPECT_GT(stats.total_ops, 0u);
  EXPECT_GT(stats.throughput_ops_per_sec(), 0.0);
}

TEST(Runner, WorkersSeeTheirDeclaredCoreType) {
  auto roles = m1_layout(4, /*num_big=*/2);
  std::atomic<int> big_seen{0};
  std::atomic<int> little_seen{0};
  run_fixed_duration(roles, 10 * kNanosPerMilli,
                     [&](const WorkerCtx& ctx) -> WorkerBody {
                       if (is_big_core()) {
                         big_seen.fetch_add(1);
                       } else {
                         little_seen.fetch_add(1);
                       }
                       (void)ctx;
                       return [](WorkerCtx& c) {
                         spin_nops(100);
                         c.ops += 1;
                       };
                     });
  EXPECT_EQ(big_seen.load(), 2);
  EXPECT_EQ(little_seen.load(), 2);
}

TEST(Runner, LatencyRecordsMergeAcrossWorkers) {
  auto roles = m1_layout(2, 1);
  RunStats stats = run_fixed_duration(
      roles, 20 * kNanosPerMilli, [](const WorkerCtx&) -> WorkerBody {
        return [](WorkerCtx& ctx) {
          const Nanos t0 = now_ns();
          spin_nops(500);
          ctx.record_latency(now_ns() - t0);
          ctx.ops += 1;
        };
      });
  EXPECT_GT(stats.latency.overall().count(), 0u);
  EXPECT_GT(stats.latency.big().count(), 0u);
  EXPECT_GT(stats.latency.little().count(), 0u);
}

// Captures everything written to std::cout while alive.
class CoutCapture {
 public:
  CoutCapture() : old_(std::cout.rdbuf(out_.rdbuf())) {}
  ~CoutCapture() { std::cout.rdbuf(old_); }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
  std::streambuf* old_;
};

TEST(ShapeSkip, PrintsTheReasonAndLeavesTheVerdictAlone) {
  bench::ScenarioContext ctx("shape_skip_test", 1.0, nullptr);
  std::string printed;
  {
    CoutCapture capture;
    ctx.shape_skip("bracket ordered", "no SLO-feasible rate found");
    printed = capture.str();
  }
  EXPECT_EQ(printed,
            "  [shape SKIP] bracket ordered: no SLO-feasible rate found\n");
  EXPECT_TRUE(ctx.all_ok()) << "a skip is not a failure";
  EXPECT_EQ(ctx.skipped(), 1u);
  {
    CoutCapture capture;
    ctx.shape_check(false, "a real failure");
  }
  EXPECT_FALSE(ctx.all_ok()) << "nor does a skip mask one";
  EXPECT_EQ(ctx.skipped(), 1u);
}

}  // namespace
}  // namespace asl

// One passing check and one skipped check; explicit-only, so it runs only
// when named.
ASL_SCENARIO_EXPLICIT(harness_skip_probe, "one pass, one skip") {
  ctx.shape_check(true, "premise-free check");
  ctx.shape_skip("premised check", "premise did not hold");
}

namespace asl {
namespace {

TEST(ShapeSkip, ScenarioMainSummaryCountsSkipsAndExitsZero) {
  char prog[] = "harness_test";
  char name[] = "harness_skip_probe";
  char* argv[] = {prog, name};
  int rc = -1;
  std::string printed;
  {
    CoutCapture capture;
    rc = bench::scenario_main(2, argv, nullptr);
    printed = capture.str();
  }
  EXPECT_EQ(rc, 0);
  EXPECT_NE(printed.find("  [shape SKIP] premised check: premise did not "
                         "hold\n"),
            std::string::npos);
  EXPECT_NE(printed.find("\nAll shape checks passed (1 skipped).\n"),
            std::string::npos)
      << printed;
}

}  // namespace
}  // namespace asl
