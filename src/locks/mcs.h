// MCS queue lock (Mellor-Crummey & Scott, 1991) — the paper's default FIFO
// substrate for the reorderable lock.
//
// Each waiter spins on a flag in its own cache-line-private queue node, so
// handover causes exactly one line transfer. Queue nodes live in a per-lock
// array indexed by the dense thread id (platform/thread_registry.h), which
// keeps lock()/unlock() signature-compatible with std::mutex — no node
// threading through call sites, which matters because the database engines
// hold locks across function boundaries.
#pragma once

#include <atomic>
#include <memory>

#include "platform/cacheline.h"
#include "platform/spin.h"
#include "platform/thread_registry.h"
#include "locks/lock_concepts.h"

namespace asl {

class McsLock {
 public:
  McsLock() : nodes_(std::make_unique<Node[]>(kMaxThreads)) {}
  McsLock(const McsLock&) = delete;
  McsLock& operator=(const McsLock&) = delete;

  void lock() {
    Node* me = &nodes_[thread_id()];
    me->next.store(nullptr, std::memory_order_relaxed);
    me->locked.store(true, std::memory_order_relaxed);
    Node* prev = tail_.exchange(me, std::memory_order_acq_rel);
    if (prev != nullptr) {
      prev->next.store(me, std::memory_order_release);
      SpinWait waiter;
      while (me->locked.load(std::memory_order_acquire)) {
        waiter.pause();
      }
    }
  }

  bool try_lock() {
    Node* me = &nodes_[thread_id()];
    me->next.store(nullptr, std::memory_order_relaxed);
    me->locked.store(true, std::memory_order_relaxed);
    Node* expected = nullptr;
    return tail_.compare_exchange_strong(expected, me,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  void unlock() {
    Node* me = &nodes_[thread_id()];
    Node* next = me->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      Node* expected = me;
      if (tail_.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return;
      }
      // A successor is in the middle of enqueueing; wait for its link.
      do {
        cpu_relax();
        next = me->next.load(std::memory_order_acquire);
      } while (next == nullptr);
    }
    next->locked.store(false, std::memory_order_release);
  }

  bool is_free() const {
    return tail_.load(std::memory_order_relaxed) == nullptr;
  }

 private:
  struct alignas(kCacheLine) Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> locked{false};
  };

  alignas(kCacheLine) std::atomic<Node*> tail_{nullptr};
  std::unique_ptr<Node[]> nodes_;
};

static_assert(Lockable<McsLock>);
template <>
struct is_fifo_lock<McsLock> : std::true_type {};

}  // namespace asl
