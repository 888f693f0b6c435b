// HashKv — in-memory hash-table KV store, the Kyoto Cabinet stand-in.
//
// Lock pattern (Table 1): a *method lock* serializing whole-store operations
// (iteration, clear, resize bookkeeping) against per-record operations, plus
// *slot-level locks* protecting the actual chains. A Put/Get epoch therefore
// takes: method lock (briefly, shared intent) then its slot lock, matching
// the paper's "Slot-level Lock, Method Lock" row.
//
// Layout (Kyoto CacheDB's): `num_slots` slots, each a lock guarding a fixed
// array of kBucketsPerSlot chains. A key's hash h picks slot
// h % num_slots and, within it, bucket (h / num_slots) % kBucketsPerSlot:
// the hash's next digit, independent of the slot index (h % 256 would
// repeat the slot's residue and fill only 1 bucket in 16 on 16 slots). The
// service's 16-slot engine spreads its 2^15 keys over all 4,096 buckets,
// 18 entries in the longest chain. Slots are heavy to multiply: each
// carries an MCS node array of kMaxThreads cache lines, so the buckets, not
// more slots, shorten the scan under a lock.
//
// All locks are AslMutex so an application linked with LibASL gets the
// SLO-guided ordering with no code changes here.
#pragma once

#include <array>
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

  // Entries in the longest chain: the most a lookup scans under its slot
  // lock (an observable of the layout, like MvKv::height()).
  std::size_t longest_chain() const;

 private:
  static constexpr std::size_t kBucketsPerSlot = 256;

  struct Entry {
    std::string key;
    std::string value;
  };
  using Chain = std::vector<Entry>;
  struct Slot {
    mutable AslMutex<McsLock> lock;
    std::array<Chain, kBucketsPerSlot> buckets;
  };
  // Where a key lives: its slot, and its bucket within that slot.
  struct Home {
    std::size_t slot;
    std::size_t bucket;
  };

  static std::uint64_t hash_key(std::string_view key);
  Home home_of(std::string_view key) const;

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
