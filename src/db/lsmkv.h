// LsmKv — log-structured merge KV store, the LevelDB stand-in.
//
// Lock pattern (Table 1): a *metadata lock* that every Get takes briefly to
// snapshot the current version (memtable + immutable runs) — the paper's
// db_bench randomread "acquires a global lock to take a snapshot of internal
// database structures" — and that Put takes to append to the memtable and to
// rotate/compact. Reads then proceed off-lock against the snapshot.
//
// Runs are immutable sorted vectors shared via shared_ptr; compaction merges
// the two smallest runs when the run count exceeds a threshold.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asl/libasl.h"

namespace asl::db {

class LsmKv {
 public:
  struct Options {
    std::size_t memtable_limit = 1024;  // entries before rotation
    std::size_t max_runs = 8;           // compact when exceeded
  };

  explicit LsmKv(Options options);
  LsmKv() : LsmKv(Options{}) {}

  // The value is a view; the memtable entry copies it (an LSM put appends a
  // fresh version by design, so this engine allocates per put — the one
  // engine kv_alloc_audit exempts, DESIGN.md §9).
  void put(std::uint64_t key, std::string_view value);
  // Tombstone write; get() of an erased key returns nullopt.
  void erase(std::uint64_t key);

  std::optional<std::string> get(std::uint64_t key) const;
  std::vector<std::pair<std::uint64_t, std::string>> range(
      std::uint64_t lo, std::uint64_t hi) const;

  // Snapshot for multi-read consistency (what db_bench's Get loop models).
  class Snapshot {
   public:
    struct Entry {
      std::uint64_t key;
      std::uint64_t seq;
      bool tombstone;
      std::string value;
    };
    using Run = std::vector<Entry>;

    std::optional<std::string> get(std::uint64_t key) const;

    // Ordered range scan [lo, hi]: newest version per key wins, tombstones
    // suppress. Merges the memtable view with every run.
    std::vector<std::pair<std::uint64_t, std::string>> range(
        std::uint64_t lo, std::uint64_t hi) const;

   private:
    friend class LsmKv;
    std::shared_ptr<const Run> memtable_;  // sorted copy-on-rotate view
    std::vector<std::shared_ptr<const Run>> runs_;  // newest first
  };
  Snapshot snapshot() const;

  std::size_t num_runs() const;
  std::size_t memtable_entries() const;

  // Force-merge all runs into one (testing / maintenance).
  void compact_all();

 private:
  using Entry = Snapshot::Entry;
  using Run = Snapshot::Run;

  void rotate_memtable_locked();
  void maybe_compact_locked();
  static std::shared_ptr<const Run> merge_runs(const Run& newer,
                                               const Run& older);

  Options options_;
  mutable AslMutex<McsLock> meta_lock_;
  // All below guarded by meta_lock_.
  std::vector<Entry> memtable_;  // kept sorted by (key, seq desc)
  std::vector<std::shared_ptr<const Run>> runs_;  // newest first
  std::uint64_t next_seq_ = 1;
};

}  // namespace asl::db
