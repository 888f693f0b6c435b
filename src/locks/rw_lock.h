// Asymmetry-aware reader-writer lock.
//
// Kyoto Cabinet's "method lock" (Table 1) is a reader-writer lock: record
// operations take it shared, store-wide operations exclusive. This RW lock
// composes with LibASL the same way AslMutex does: the writer path goes
// through a reorderable lock (big-core writers overtake little-core writers
// within their reorder windows), and readers use a counting fast path.
//
// Design: writer-preference counting RW lock.
//   * state_ = (writer_active << 31) | reader_count
//   * readers spin while a writer is active or pending;
//   * writers serialize on an AslMutex (so LibASL's SLO-guided ordering
//     applies among writers), announce intent (writer_pending_), wait for
//     readers to drain, then set writer_active.
//
// Admission is a Dekker handshake: a reader increments readers_ then loads
// writer_pending_, a writer stores writer_pending_ then loads readers_.
// Each side's store must be ordered before its load, which only seq_cst
// gives on both sides (release/acquire lets x86 hoist the load above the
// buffered store, and then a reader and a writer both get in).
#pragma once

#include <atomic>
#include <cstdint>

#include "asl/libasl.h"
#include "platform/cacheline.h"
#include "platform/spin.h"

namespace asl {

template <Lockable WriterLock = AslMutex<McsLock>>
class RwLock {
 public:
  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock_shared() {
    SpinWait waiter;
    for (;;) {
      // Writer preference: do not start new reads while a writer waits.
      while (writer_pending_.load(std::memory_order_acquire)) {
        waiter.pause();
      }
      readers_.fetch_add(1, std::memory_order_seq_cst);
      if (!writer_pending_.load(std::memory_order_seq_cst)) {
        return;
      }
      // A writer announced intent between our check and increment: back out
      // and retry so the writer is not starved.
      readers_.fetch_sub(1, std::memory_order_release);
    }
  }

  void unlock_shared() { readers_.fetch_sub(1, std::memory_order_release); }

  bool try_lock_shared() {
    if (writer_pending_.load(std::memory_order_acquire)) return false;
    readers_.fetch_add(1, std::memory_order_seq_cst);
    if (writer_pending_.load(std::memory_order_seq_cst)) {
      readers_.fetch_sub(1, std::memory_order_release);
      return false;
    }
    return true;
  }

  void lock() {
    writer_lock_.lock();  // LibASL ordering among writers
    writer_pending_.store(true, std::memory_order_seq_cst);
    SpinWait waiter;
    while (readers_.load(std::memory_order_seq_cst) != 0) {
      waiter.pause();
    }
  }

  bool try_lock() {
    if (!writer_lock_.try_lock()) return false;
    writer_pending_.store(true, std::memory_order_seq_cst);
    if (readers_.load(std::memory_order_seq_cst) != 0) {
      writer_pending_.store(false, std::memory_order_release);
      writer_lock_.unlock();
      return false;
    }
    return true;
  }

  void unlock() {
    writer_pending_.store(false, std::memory_order_release);
    writer_lock_.unlock();
  }

  bool is_free() const {
    return readers_.load(std::memory_order_relaxed) == 0 &&
           !writer_pending_.load(std::memory_order_relaxed);
  }

  std::uint32_t reader_count() const {
    return readers_.load(std::memory_order_relaxed);
  }

 private:
  alignas(kCacheLine) std::atomic<std::uint32_t> readers_{0};
  alignas(kCacheLine) std::atomic<bool> writer_pending_{false};
  WriterLock writer_lock_;
};

// RAII shared guard.
template <typename RW>
class SharedGuard {
 public:
  explicit SharedGuard(RW& lock) : lock_(lock) { lock_.lock_shared(); }
  ~SharedGuard() { lock_.unlock_shared(); }
  SharedGuard(const SharedGuard&) = delete;
  SharedGuard& operator=(const SharedGuard&) = delete;

 private:
  RW& lock_;
};

}  // namespace asl
