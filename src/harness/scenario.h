// Scenario registry + shared bench driver.
//
// Every figure reproduction registers a named scenario (ASL_SCENARIO) and
// the per-bench main() boilerplate lives once in scenario_main(): shared CLI
// (--list, --scenario selection, --time-scale, --csv), the SIM_TIME_SCALE
// environment knob, uniform banners/shape-check accounting, and
// machine-readable CSV output alongside the human tables. Figure binaries
// are generated from one driver (bench/figures_main.cpp) compiled against
// the scenario objects — the setbench-style "one target graph, many
// executables" layout (DESIGN.md §1).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "stats/table.h"

namespace asl::bench {

// Per-run services handed to a scenario: output, shape-check accounting and
// the shared time-scale knob.
class ScenarioContext {
 public:
  ScenarioContext(std::string scenario, double time_scale, std::ostream* csv,
                  std::map<std::string, std::string> options = {});

  // Simulated-duration scaling (SIM_TIME_SCALE / --time-scale).
  double time_scale() const { return time_scale_; }
  sim::SimConfig scaled(sim::SimConfig cfg) const {
    return sim::scale_durations(cfg, time_scale_);
  }

  void banner(const std::string& figure, const std::string& title);
  void note(const std::string& text);

  // Shape check: prints PASS/FAIL so bench output doubles as verification;
  // the driver's exit code aggregates over every scenario run.
  void shape_check(bool ok, const std::string& what);

  // A check this run cannot make because its premise did not hold (a probe
  // that found no capacity has no bracket to order): prints
  // "[shape SKIP] <what>: <why>" instead of a vacuous PASS. It leaves
  // all_ok() and the exit code unchanged; scenario_main's summary line
  // counts it, so a run of skips never reads as a plain pass.
  void shape_skip(const std::string& what, const std::string& why);

  // Print the table to stdout and, when CSV output is enabled, append it to
  // the CSV stream tagged with the scenario and table name.
  void emit(const Table& table, const std::string& tag);

  bool all_ok() const { return all_ok_; }
  std::uint32_t skipped() const { return skipped_; }
  const std::string& scenario() const { return scenario_; }

  // Scenario-interpreted filter option ("" when the flag was not given).
  // The driver whitelists the flag names (--engine=, --mix=, --seed=,
  // --trace=) so a typo'd flag still errors instead of silently reaching a
  // scenario that ignores it; scenarios that do not read a given option are
  // unaffected by it. Values are raw strings: the consuming scenario
  // validates them (a bad value is a shape FAIL there, not a CLI error).
  std::string option(const std::string& name) const;

 private:
  std::string scenario_;
  double time_scale_ = 1.0;
  std::ostream* csv_ = nullptr;
  std::map<std::string, std::string> options_;
  bool all_ok_ = true;
  std::uint32_t skipped_ = 0;
};

using ScenarioFn = std::function<void(ScenarioContext&)>;

struct Scenario {
  std::string name;   // CLI name, e.g. "fig01_collapse"
  std::string title;  // one-line description for --list
  ScenarioFn run;
  // Run only when named on the command line, never under --all. For
  // scenarios whose assertions need a quiet process (kv_alloc_audit counts
  // every heap allocation process-wide; dozens of preceding scenarios'
  // thread churn would show up in its steady-state window).
  bool explicit_only = false;
};

class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  void add(Scenario scenario);
  const Scenario* find(const std::string& name) const;
  // All scenarios, sorted by name.
  std::vector<const Scenario*> list() const;

 private:
  std::vector<Scenario> scenarios_;
};

struct ScenarioRegistrar {
  ScenarioRegistrar(std::string name, std::string title, ScenarioFn fn,
                    bool explicit_only = false);
};

// Registers `void` scenario body: ASL_SCENARIO(fig01_collapse, "...") { ... }
// The body receives `ScenarioContext& ctx`.
#define ASL_SCENARIO(scenario_name, scenario_title)                          \
  static void asl_scenario_body_##scenario_name(                             \
      ::asl::bench::ScenarioContext& ctx);                                   \
  static const ::asl::bench::ScenarioRegistrar                               \
      asl_scenario_reg_##scenario_name{#scenario_name, scenario_title,       \
                                       asl_scenario_body_##scenario_name};   \
  static void asl_scenario_body_##scenario_name(                             \
      ::asl::bench::ScenarioContext& ctx)

// Like ASL_SCENARIO, but the scenario runs only when named explicitly —
// `--all` skips it (and `--list` marks it). See Scenario::explicit_only.
#define ASL_SCENARIO_EXPLICIT(scenario_name, scenario_title)                 \
  static void asl_scenario_body_##scenario_name(                             \
      ::asl::bench::ScenarioContext& ctx);                                   \
  static const ::asl::bench::ScenarioRegistrar                               \
      asl_scenario_reg_##scenario_name{#scenario_name, scenario_title,       \
                                       asl_scenario_body_##scenario_name,    \
                                       /*explicit_only=*/true};              \
  static void asl_scenario_body_##scenario_name(                             \
      ::asl::bench::ScenarioContext& ctx)

// The shared driver. CLI:
//   --list                 print registered scenarios and exit
//   --time-scale=<f>       override SIM_TIME_SCALE
//   --csv=<path>           write every emitted table as CSV to <path>
//   --all                  run every registered scenario (except the
//                          explicit-only ones, see ASL_SCENARIO_EXPLICIT)
//   --engine=<name>        filter option for engine-matrix scenarios
//                          (kv_engine_sweep: run one registry engine)
//   --mix=<name|r:w>       filter option for mix-matrix scenarios (a mix
//                          name like get_heavy, or a get:put rate ratio)
//   --seed=<n>             reseed option for the record/replay scenarios
//                          (kv_record: perturb every LoadSpec seed)
//   --trace=<path>         trace file option for the record/replay
//                          scenarios (kv_record writes it, kv_replay reads
//                          it; an unreadable value is a shape FAIL)
//   --telemetry=<on|off>   telemetry toggle for scenarios that support it
//                          (kv_alloc_audit: audit with the sampler live)
//   --spans=<path>         Chrome-trace JSON output for span-tracing
//                          scenarios (kv_telemetry writes it; load it in
//                          Perfetto / chrome://tracing)
//   <name>...              scenarios to run (default: `default_scenario`,
//                          or --list behaviour when none is configured)
// Exit code 0 iff every shape check of every scenario passed (skipped
// checks do not count either way; each scenario's summary line counts them).
int scenario_main(int argc, char** argv, const char* default_scenario);

}  // namespace asl::bench
