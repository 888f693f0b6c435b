// KvEngine — the pluggable storage-engine contract behind the KV service
// (DESIGN.md §7).
//
// The paper's real-application results (Fig. 9/10) show that ASL's benefit
// depends on the *engine's* critical-section profile: Kyoto's slot locks,
// upscaledb's global lock and LevelDB's snapshot-then-read-off-lock pattern
// saturate at very different offered loads and with very different get/put
// asymmetry. This header is the seam that lets one service front-end run on
// any of them:
//
//   * KvEngine — uint64-key/string-value get/put/erase, implemented by thin
//     adapters over the src/db engines (HashKv, BtreeKv, LsmKv). Every
//     adapter is internally locked, but under the KV service all calls are
//     additionally serialized by the shard lock — the adapters exist for
//     the *data*, the CostProfile below models the *time*.
//   * CostProfile — per-op service-cost classes in emulated NOPs, the twin-
//     fidelity currency (experiment.h's ~0.4 ns/NOP calibration). cs_nops
//     is spent inside the shard lock, post_nops after release. The real
//     service spins these counts (scaled by the worker's core speed) to
//     emulate a paper-scale engine on our small in-memory stand-ins; the
//     simulated twin charges exactly the same classes in virtual time —
//     one number set, two clocks, which is what keeps twin-predicted
//     capacity comparable to the real probe (DESIGN.md §5/§7).
//   * the registry — string-keyed construction (make_kv_engine) plus the
//     checked-in default CostProfile per engine (default_cost_profile),
//     calibrated once with the engine_calib harness and pinned so twin
//     runs stay deterministic across hosts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace asl::db {

// One operation's service-cost class: emulated NOPs inside the shard lock
// (cs_nops) and after release (post_nops). Big-core counts; little cores
// stretch by the SpeedFactors / machine-model slowdowns at the call site.
struct OpCost {
  std::uint64_t cs_nops = 0;
  std::uint64_t post_nops = 0;
};

// Per-op cost classes for one engine. This is what replaces the service's
// old flat cs_nops fold: a get and a put may cost arbitrarily different
// amounts, which is exactly the LSM asymmetry (cheap snapshot under the
// lock + off-lock read for gets; memtable append with amortized rotation/
// compaction under the lock for puts) a single number cannot express.
struct CostProfile {
  OpCost get;
  OpCost put;
  // Lock-free get class (the MVCC snapshot-read contract, DESIGN.md §8):
  // when set, the service routes gets around the shard lock entirely —
  // get.cs_nops is still the latency-visible service time of the read, but
  // it is spent *off-lock* at non-critical-section speed (the real worker
  // spins it scale_ncs, the twin charges it under ncs_slowdown), and the
  // shard lock is acquired for puts only. Safe because every engine is
  // internally synchronized; profitable only for engines whose reads take
  // no engine-side lock either (mvcc's pinned snapshots).
  bool get_lock_free = false;

  const OpCost& op(bool is_put) const { return is_put ? put : get; }

  // All-zero means "unset": KvServiceConfig uses it as the sentinel for
  // "resolve from the engine registry default".
  bool empty() const {
    return get.cs_nops == 0 && get.post_nops == 0 && put.cs_nops == 0 &&
           put.post_nops == 0;
  }

  // Uniformly scaled copy — the overload scenarios' knob. Scaling every
  // class by one factor preserves the get/put asymmetry (it is not a fold
  // back into a single number).
  CostProfile scaled(double factor) const {
    auto mul = [factor](std::uint64_t n) {
      return static_cast<std::uint64_t>(static_cast<double>(n) * factor);
    };
    return CostProfile{{mul(get.cs_nops), mul(get.post_nops)},
                       {mul(put.cs_nops), mul(put.post_nops)},
                       get_lock_free};
  }
};

// The engine contract the KV service shards program against. Adapters
// normalize the underlying engines' key/value conventions (HashKv's string
// keys, LsmKv's void put) to one shape; get of a missing key is nullopt,
// never an error, and erase reports whether the key was (still) visible.
class KvEngine {
 public:
  virtual ~KvEngine() = default;

  // The registry name this engine was constructed under ("hash", ...).
  virtual std::string_view name() const = 0;

  // put takes a view, not a string: the service formats values into arena
  // buffers outside the critical section (DESIGN.md §9) and the engine must
  // be able to consume them without forcing a std::string materialization
  // at the call boundary. Engines copy the bytes into their own storage
  // (reusing existing capacity on overwrite), so the view only needs to
  // outlive the call.
  virtual void put(std::uint64_t key, std::string_view value) = 0;
  virtual std::optional<std::string> get(std::uint64_t key) const = 0;
  virtual bool erase(std::uint64_t key) = 0;

  // Initial load (DESIGN.md §7): stores every key with `value`, leaving the
  // engine exactly as a put of each key would — but the engine, not the
  // caller, decides the order and shape its data takes. Contract: the
  // engine is empty and `keys` is strictly ascending; every override checks
  // it with require_bulk_load_contract, which aborts with a diagnosis as an
  // unknown engine name does. The default is the put loop; mvcc builds its
  // balanced tree directly.
  virtual void bulk_load(std::span<const std::uint64_t> keys,
                         std::string_view value);

  // Live (non-deleted) keys. May cost a full scan on engines without a
  // cheap counter (the LSM adapter counts a snapshot): an observability
  // call, not a hot-path one.
  virtual std::size_t size() const = 0;

  // Whether get() is safe and profitable to call without the shard lock:
  // true only for engines whose reads are wait-free against concurrent
  // writers (no engine-internal reader lock, no refcount contention). Must
  // agree with the registry CostProfile's get_lock_free flag — the service
  // routes on the profile, and tests pin the two together.
  virtual bool lock_free_gets() const { return false; }
};

// Aborts with a diagnosis naming `engine` unless it is empty (`size` == 0)
// and `keys` is strictly ascending — the bulk_load precondition, shared by
// KvEngine and the engines that expose their own bulk load (MvKv).
void require_bulk_load_contract(std::string_view engine, std::size_t size,
                                std::span<const std::uint64_t> keys);

// Registered engine names, sorted ("btree", "hash", "lsm", "mvcc").
std::vector<std::string> kv_engine_names();

// Constructs the engine registered under `name`; nullptr when the name is
// unknown — pair with kv_engine_error() for the diagnosis. The service
// front-ends treat an unknown name as a configuration bug and abort with
// that message rather than silently substituting a default.
std::unique_ptr<KvEngine> make_kv_engine(std::string_view name);

// Human-readable diagnosis for an unknown engine name, listing the
// registered ones.
std::string kv_engine_error(std::string_view name);

// The checked-in calibrated default CostProfile for `name` (DESIGN.md §7:
// measured once with the engine_calib harness on the reference host, then
// pinned so the twin's virtual time never depends on the build machine).
// Returns an empty profile for unknown names.
CostProfile default_cost_profile(std::string_view name);

}  // namespace asl::db
