// HashKv — in-memory hash-table KV store, the Kyoto Cabinet stand-in.
//
// Lock pattern (Table 1): a *method lock* serializing whole-store operations
// (iteration, clear, resize bookkeeping) against per-record operations, plus
// *slot-level locks* protecting the actual chains. A Put/Get epoch therefore
// takes: method lock (briefly, shared intent) then its slot lock, matching
// the paper's "Slot-level Lock, Method Lock" row.
//
// Layout: `num_slots` slots, each a lock guarding one linear chain, so a
// slot holding n keys scans up to n entries under its lock (the service's
// 16-slot engine keeps 2^15 keys in 2,048-entry chains). Slots are heavy to
// multiply: each carries an MCS node array of kMaxThreads cache lines.
//
// All locks are AslMutex so an application linked with LibASL gets the
// SLO-guided ordering with no code changes here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asl/libasl.h"

namespace asl::db {

class HashKv {
 public:
  explicit HashKv(std::size_t num_slots = 64);

  // Inserts or overwrites. Returns true if the key was new. Keys and values
  // are views (callers may format them in stack/arena buffers — DESIGN.md
  // §9); the store copies into its own entries, reusing an existing entry's
  // value capacity on overwrite, so only first-insert allocates.
  bool put(std::string_view key, std::string_view value);

  std::optional<std::string> get(std::string_view key) const;

  // Removes the key; returns true if it existed.
  bool remove(std::string_view key);

  std::size_t size() const;

  // Whole-store iteration under the exclusive method lock (the "method"
  // operations Kyoto serializes store-wide).
  void for_each(
      const std::function<void(const std::string&, const std::string&)>& fn)
      const;

  std::size_t num_slots() const { return slots_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  struct Slot {
    mutable AslMutex<McsLock> lock;
    std::vector<Entry> chain;
  };

  static std::uint64_t hash_key(std::string_view key);
  Slot& slot_for(std::string_view key);
  const Slot& slot_for(std::string_view key) const;

  // Method lock: count of in-flight record ops + exclusive flag, guarded by
  // method_lock_. Record ops take it briefly (shared intent); for_each takes
  // it exclusively by waiting the in-flight count down.
  void method_enter_shared() const;
  void method_exit_shared() const;

  mutable AslMutex<McsLock> method_lock_;
  mutable std::uint32_t inflight_ = 0;  // guarded by method_lock_
  std::vector<Slot> slots_;
  mutable AslMutex<McsLock> size_lock_;
  std::size_t size_ = 0;  // guarded by size_lock_
};

}  // namespace asl::db
