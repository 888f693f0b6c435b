// Engine cost-model calibration (DESIGN.md §7).
//
// The twin prices every KV request with a per-op CostProfile (db/engine.h)
// in emulated NOPs. The checked-in defaults were produced by this harness:
// it measures, on the current host,
//   (a) the wall-clock cost of one emulated NOP (spin_nops — the unit the
//       profile is denominated in), and
//   (b) the mean wall-clock cost of one get and one put against a live
//       engine instance (prefilled through KvEngine::bulk_load, uniform
//       random keys),
// then divides (b) by (a) to express the engine's op costs as NOP classes.
// The measured profile keeps the checked-in default's post_nops (the
// off-lock share is a modeling split the wall clock cannot observe from
// outside the service) and replaces the cs classes.
//
// Two uses: regenerating the checked-in defaults after an engine change
// (run kv_engine_calib on a quiet host, copy the classes into
// src/db/engine.cpp), and per-host fidelity checks — pass the measured
// profile through KvServiceConfig::cost to make the twin model *this*
// host's engines instead of the reference numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/engine.h"
#include "stats/table.h"

namespace asl::bench {

struct EngineCalibConfig {
  std::uint64_t prefill_keys = 4096;  // live keys before measuring
  std::uint64_t key_space = 4096;     // measured ops draw keys below this
  std::uint64_t ops = 20000;          // measured ops per op kind
  std::uint64_t seed = 42;            // key-draw RNG seed
};

struct EngineCalibResult {
  std::string engine;
  double nop_ns = 0;  // measured wall ns per emulated NOP on this host
  double get_ns = 0;  // mean wall ns per engine get
  double put_ns = 0;  // mean wall ns per engine put
  // Measured cs classes (get_ns / nop_ns, put_ns / nop_ns) + the reference
  // profile's post split; all-zero when `engine` was unknown.
  db::CostProfile measured;
  // The checked-in registry default, for side-by-side comparison.
  db::CostProfile reference;

  bool valid() const { return !measured.empty(); }
};

// Measures one engine. Wall-clock: run on a quiet host for numbers worth
// checking in; determinism is *not* promised (that is what the pinned
// defaults in db/engine.cpp are for).
EngineCalibResult calibrate_engine(const std::string& engine,
                                   const EngineCalibConfig& config = {});

// Every registered engine, in registry (sorted) order.
std::vector<EngineCalibResult> calibrate_all_engines(
    const EngineCalibConfig& config = {});

// One row per engine: measured ns/op, derived cs classes, reference
// classes. Wall-clock cells — human/CSV output, not a golden.
Table engine_calib_table(const std::vector<EngineCalibResult>& results);

}  // namespace asl::bench
