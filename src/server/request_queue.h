// Bounded request queue — the per-shard admission buffer of the KV service.
//
// Open-loop traffic needs explicit backpressure: when arrivals outrun
// service capacity the queue fills and try_push fails, turning overload into
// a counted rejection instead of unbounded memory growth (DESIGN.md §4).
// The default service layout is MPSC (many submitters, one worker per
// shard), but nothing here assumes a single consumer, so scenarios may run
// a big/little worker pair per shard.
//
// Class-aware admission (DESIGN.md §6) is expressed as a per-push depth
// limit: try_push_below(item, limit) admits only while the current depth is
// under `limit`, so a sheddable request class can be rejected at a watermark
// below the physical capacity while protected classes keep using the full
// queue. The queue itself stays class-blind — the caller
// (ServiceCore::admit, for the real service and its twin alike) derives the
// limit from the class's AdmissionPolicy, and the tri-state PushResult
// tells it whether a rejection was a deliberate shed (watermark hit, queue
// not full) or genuine exhaustion.
//
// Synchronization is one std::mutex and one std::condition_variable bound
// to it. Producers never block; a popper waits on the queue's own mutex
// until an item or close() arrives, and a push notifies after unlocking, so
// the woken popper does not collide with the pusher still holding the lock.
// (asl::CondVar is for waiting on LibASL mutexes; this queue's lock is a
// plain mutex, so it needs no shadow mutex.)
//
// Spin-then-park. pop(out, spin_ns) with a budget above 0 first polls the
// depth with cpu_relax() for up to spin_ns and takes the head through
// try_pop once the depth is non-zero; a popper that loses that race keeps
// polling until its deadline, and close() ends the spin. Only then does it
// park on the condition variable, exactly as a budget of 0 does at once. A
// spinning popper takes an arrival without a futex wake on either side, so
// the caller grants a budget only to a popper that owns its CPU
// (KvService::worker_loop); one that shares a CPU would burn its
// neighbour's time.
//
// Skipped notify. A pusher skips notify_one while at least as many poppers
// spin as items are queued: a spinner will take the item, so waking a
// parked popper would only make it find an empty queue. No wake-up is
// lost. A popper is counted in spinners_ only while it polls an empty
// queue, and it leaves the count *before* it locks the mutex, whether to
// take an item (try_pop) or to park; a pusher reads spinners_ *after* it
// unlocks. If the spinner's lock came first in the mutex's order, its
// decrement would happen before the pusher's read, and the read could not
// count it. So every spinner a pusher counts locks the mutex after that
// push and takes an item if one is left, and the pusher skips only when
// those spinners are at least as many as the items queued. Every ordering
// the argument needs comes from the mutex: the counter itself needs none.
//
// count_ and closed_ are atomics written only under the mutex, so spinners
// and size() read them without it: polling a shard's depth (a spinner, the
// telemetry sampler, queue_depth()) never takes the lock pushers need.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "platform/cacheline.h"
#include "platform/spin.h"
#include "platform/time.h"

namespace asl::server {

// Outcome of a depth-limited push. kShed is only possible when the caller's
// limit is below the physical capacity: the queue had room, but the class's
// watermark said to bounce the request anyway.
enum class PushResult : std::uint8_t {
  kOk = 0,    // admitted
  kShed = 1,  // rejected by the caller's depth limit (queue not full)
  kFull = 2,  // rejected by capacity exhaustion or close()
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {
    ring_.resize(capacity_);
  }
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking push; false when the queue is full or closed (the caller
  // counts the rejection). Equivalent to try_push_below(item, capacity()).
  bool try_push(T item) {
    return try_push_below(std::move(item), capacity_) == PushResult::kOk;
  }

  // Non-blocking push with a caller-supplied depth limit: admits only while
  // the current depth is strictly below min(limit, capacity). The limit is
  // evaluated under the queue lock, so the shed decision and the push are
  // one atomic step — a concurrent pop cannot turn a shed into a spurious
  // full-queue rejection or vice versa. A limit >= capacity degenerates to
  // plain try_push (kShed is never returned); a limit of 0 sheds everything
  // for that class while the queue stays open to others.
  PushResult try_push_below(T item, std::size_t limit) {
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      depth = count_.load(std::memory_order_relaxed);
      if (closed_.load(std::memory_order_relaxed) || depth >= capacity_) {
        return PushResult::kFull;
      }
      if (depth >= limit) return PushResult::kShed;
      ring_[(head_ + depth) % capacity_] = std::move(item);
      depth += 1;
      count_.store(depth, std::memory_order_relaxed);
    }
    // After the unlock (header comment: the skipped notify).
    if (spinners_.load(std::memory_order_relaxed) < depth) {
      not_empty_.notify_one();
    }
    return PushResult::kOk;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // fully drained (false). Closed-but-nonempty queues keep delivering, so
  // every accepted request is eventually served. With spin_ns > 0 the
  // popper polls for up to spin_ns before it parks (header comment).
  bool pop(T& out, Nanos spin_ns = 0) {
    if (spin_ns > 0 && spin_pop(out, spin_ns)) return true;
    std::unique_lock<std::mutex> guard(mutex_);
    not_empty_.wait(guard, [this] {
      return count_.load(std::memory_order_relaxed) != 0 ||
             closed_.load(std::memory_order_relaxed);
    });
    if (count_.load(std::memory_order_relaxed) == 0) return false;
    take_head(out);
    return true;
  }

  // Non-blocking pop: true and an item when one is immediately available,
  // false otherwise (empty or closed-and-drained). Workers use this to
  // extend a batch after the blocking pop delivered its head — the batch
  // grows only with requests that are already waiting, it never stalls the
  // critical section waiting for arrivals.
  bool try_pop(T& out) {
    std::lock_guard<std::mutex> guard(mutex_);
    if (count_.load(std::memory_order_relaxed) == 0) return false;
    take_head(out);
    return true;
  }

  // Rejects future pushes and wakes all poppers. Idempotent. Closed is
  // terminal: pushes fail forever, pops drain what remains.
  void close() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      closed_.store(true, std::memory_order_relaxed);
    }
    not_empty_.notify_all();
  }

  // Instantaneous depth, read without the lock; a point-in-time read that
  // concurrent pushes and pops may move immediately.
  std::size_t size() const { return count_.load(std::memory_order_relaxed); }

  // The clamped capacity (construction clamps 0 to 1); constant, so
  // callers may derive admission thresholds from it once.
  std::size_t capacity() const { return capacity_; }

 private:
  // The spin of pop(): true with an item taken through try_pop, false when
  // the budget ran out or the queue closed empty. The popper is counted in
  // spinners_ only while it polls an empty queue, and it leaves the count
  // before it locks the mutex (header comment: no lost wake-up).
  bool spin_pop(T& out, Nanos spin_ns) {
    const Nanos deadline = now_ns() + spin_ns;
    for (;;) {
      if (count_.load(std::memory_order_relaxed) != 0 && try_pop(out)) {
        return true;
      }
      if (closed_.load(std::memory_order_relaxed) || now_ns() >= deadline) {
        return false;
      }
      spinners_.fetch_add(1, std::memory_order_relaxed);
      while (count_.load(std::memory_order_relaxed) == 0 &&
             !closed_.load(std::memory_order_relaxed) && now_ns() < deadline) {
        cpu_relax();
      }
      spinners_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Caller holds mutex_ and count_ > 0. Resets the slot: a moved-from
  // element may still own resources (arena handles, strings), and leaving
  // it in the ring keeps them alive until the slot happens to be
  // overwritten — a leak-by-delay under low load.
  void take_head(T& out) {
    out = std::move(ring_[head_]);
    ring_[head_] = T{};
    head_ = (head_ + 1) % capacity_;
    count_.store(count_.load(std::memory_order_relaxed) - 1,
                 std::memory_order_relaxed);
  }

  // Cache-line placement: the immutable fields (capacity_, the ring's
  // control block — its data pointer never moves after construction) share
  // a read-only line, while the mutex sits on its own line *with* the
  // cursors it guards — mutex, head_, count_, closed_ and spinners_ travel
  // together through every push/pop, so splitting them across lines would
  // just add coherence misses, and padding the group keeps neighbouring
  // objects (the shard's BlockingAslMutex, another queue in an array) from
  // sharing a line with this queue's hottest word.
  const std::size_t capacity_;
  std::vector<T> ring_;   // ring buffer: [head_, head_ + count_) mod capacity
  alignas(kCacheLine) std::mutex mutex_;
  std::size_t head_ = 0;  // guarded by mutex_
  std::atomic<std::size_t> count_{0};  // written under mutex_, read anywhere
  std::atomic<bool> closed_{false};    // likewise
  std::atomic<std::uint32_t> spinners_{0};  // poppers inside spin_pop()
  std::condition_variable not_empty_;
};

}  // namespace asl::server
