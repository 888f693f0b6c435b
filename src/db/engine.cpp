#include "db/engine.h"

#include <cstdio>
#include <cstdlib>

#include "db/btreekv.h"
#include "db/hashkv.h"
#include "db/lsmkv.h"
#include "db/mvkv.h"

namespace asl::db {
namespace {

// HashKv (the Kyoto stand-in) keys by string; keep the service's historic
// "k:<n>" representation so a hash-backed store looks exactly like the
// pre-engine-subsystem one. Keys are formatted into a stack buffer and
// passed as views — the adapter itself never touches the heap (the store
// copies into its own entries, reusing capacity on overwrite).
class HashKvEngine final : public KvEngine {
 public:
  HashKvEngine() : kv_(16) {}
  std::string_view name() const override { return "hash"; }
  void put(std::uint64_t key, std::string_view value) override {
    KeyBuf buf;
    kv_.put(key_string(key, buf), value);
  }
  std::optional<std::string> get(std::uint64_t key) const override {
    KeyBuf buf;
    return kv_.get(key_string(key, buf));
  }
  bool erase(std::uint64_t key) override {
    KeyBuf buf;
    return kv_.remove(key_string(key, buf));
  }
  std::size_t size() const override { return kv_.size(); }

 private:
  using KeyBuf = char[24];  // "k:" + 20 digits + nul

  static std::string_view key_string(std::uint64_t key, KeyBuf& buf) {
    const int len = std::snprintf(buf, sizeof(KeyBuf), "k:%llu",
                                  static_cast<unsigned long long>(key));
    return std::string_view(buf, static_cast<std::size_t>(len));
  }
  HashKv kv_;
};

// BtreeKv (the upscaledb stand-in): native uint64 keys, tracked size.
class BtreeKvEngine final : public KvEngine {
 public:
  std::string_view name() const override { return "btree"; }
  void put(std::uint64_t key, std::string_view value) override {
    kv_.put(key, value);
  }
  std::optional<std::string> get(std::uint64_t key) const override {
    return kv_.get(key);
  }
  bool erase(std::uint64_t key) override { return kv_.erase(key); }
  std::size_t size() const override { return kv_.size(); }

 private:
  BtreeKv kv_;
};

// LsmKv (the LevelDB stand-in). erase() writes a tombstone whether or not
// the key exists, so visibility is probed first to keep the contract's
// "was it there" answer; size() counts live keys off one snapshot (no cheap
// counter exists across memtable + runs with superseded versions).
class LsmKvEngine final : public KvEngine {
 public:
  std::string_view name() const override { return "lsm"; }
  void put(std::uint64_t key, std::string_view value) override {
    kv_.put(key, value);
  }
  std::optional<std::string> get(std::uint64_t key) const override {
    return kv_.get(key);
  }
  bool erase(std::uint64_t key) override {
    const bool existed = kv_.get(key).has_value();
    kv_.erase(key);
    return existed;
  }
  std::size_t size() const override {
    return kv_.range(0, ~0ULL).size();
  }

 private:
  LsmKv kv_;
};

// MvKv (the LMDB stand-in): native uint64 keys, single-writer MVCC with
// epoch-reclaimed snapshot reads. The one engine whose gets are wait-free
// against concurrent puts — lock_free_gets() lets the service skip the
// shard lock for the get route entirely (DESIGN.md §8).
class MvccKvEngine final : public KvEngine {
 public:
  std::string_view name() const override { return "mvcc"; }
  void put(std::uint64_t key, std::string_view value) override {
    kv_.put(key, value);
  }
  std::optional<std::string> get(std::uint64_t key) const override {
    return kv_.get(key);
  }
  bool erase(std::uint64_t key) override { return kv_.erase(key); }
  std::size_t size() const override { return kv_.size(); }
  bool lock_free_gets() const override { return true; }
  void bulk_load(std::span<const std::uint64_t> keys,
                 std::string_view value) override {
    kv_.bulk_load(keys, value);
  }

 private:
  MvKv kv_;
};

using EngineFactory = std::unique_ptr<KvEngine> (*)();

// The registry rows, sorted by name. The default CostProfiles are the
// calibrated per-op cost classes (DESIGN.md §7): big-core NOP counts from
// the engine_calib harness on the reference host, rounded and checked in so
// twin runs are byte-deterministic everywhere. Shapes they encode:
//   * hash — O(1) slot-chain ops; symmetric get/put (this symmetry is what
//     *hides* write amplification on a hash shard);
//   * btree — depth-proportional traversals under the global lock; puts pay
//     extra for splits;
//   * lsm — gets snapshot briefly under the meta lock and read off-lock
//     (small cs, larger post), puts append to the sorted memtable and carry
//     the amortized rotation/compaction bill under the lock (large cs) —
//     the LevelDB-style put amplification the engine sweep demonstrates;
//   * mvcc — get_lock_free: gets never take the shard lock at all (the get
//     class is the off-lock snapshot traversal, charged at non-CS speed);
//     puts path-copy under the single-writer lock (cs) and retire the old
//     version's nodes to the epoch reclaimer afterwards (post).
struct EngineEntry {
  const char* name;
  EngineFactory make;
  CostProfile cost;
};

// check_docs.py parses the quoted names below as the registered-engine set;
// keep one entry per line.
const EngineEntry kEngineRegistry[] = {
    {"btree", [] { return std::unique_ptr<KvEngine>(new BtreeKvEngine); },
     CostProfile{{1000, 100}, {1300, 120}}},
    {"hash", [] { return std::unique_ptr<KvEngine>(new HashKvEngine); },
     CostProfile{{400, 100}, {400, 100}}},
    {"lsm", [] { return std::unique_ptr<KvEngine>(new LsmKvEngine); },
     CostProfile{{250, 600}, {1500, 100}}},
    {"mvcc", [] { return std::unique_ptr<KvEngine>(new MvccKvEngine); },
     CostProfile{{700, 100}, {1200, 300}, /*get_lock_free=*/true}},
};

const EngineEntry* find_entry(std::string_view name) {
  for (const EngineEntry& e : kEngineRegistry) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

}  // namespace

void KvEngine::bulk_load(std::span<const std::uint64_t> keys,
                         std::string_view value) {
  require_bulk_load_contract(name(), size(), keys);
  for (const std::uint64_t key : keys) put(key, value);
}

void require_bulk_load_contract(std::string_view engine, std::size_t size,
                                std::span<const std::uint64_t> keys) {
  const char* violation = nullptr;
  if (size != 0) violation = "the engine is not empty";
  for (std::size_t i = 1; violation == nullptr && i < keys.size(); ++i) {
    if (keys[i - 1] >= keys[i]) violation = "keys are not strictly ascending";
  }
  if (violation == nullptr) return;
  std::fprintf(stderr, "bulk_load on KV engine '%.*s': %s\n",
               static_cast<int>(engine.size()), engine.data(), violation);
  std::abort();
}

std::vector<std::string> kv_engine_names() {
  std::vector<std::string> names;
  for (const EngineEntry& e : kEngineRegistry) names.emplace_back(e.name);
  return names;
}

std::unique_ptr<KvEngine> make_kv_engine(std::string_view name) {
  const EngineEntry* entry = find_entry(name);
  return entry == nullptr ? nullptr : entry->make();
}

std::string kv_engine_error(std::string_view name) {
  std::string msg = "unknown KV engine '";
  msg += name;
  msg += "'; registered engines:";
  for (const EngineEntry& e : kEngineRegistry) {
    msg += ' ';
    msg += e.name;
  }
  return msg;
}

CostProfile default_cost_profile(std::string_view name) {
  const EngineEntry* entry = find_entry(name);
  return entry == nullptr ? CostProfile{} : entry->cost;
}

}  // namespace asl::db
