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
// There is no parked-popper counter to skip the notify when nobody waits:
// glibc's condition variable already tracks its waiters, so notify_one with
// none is a few ns and no futex call — a counter would keep the same fact
// twice. (asl::CondVar is for waiting on LibASL mutexes; this queue's lock
// is a plain mutex, so it needs no shadow mutex.)
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "platform/cacheline.h"

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
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (closed_ || count_ >= capacity_) return PushResult::kFull;
      if (count_ >= limit) return PushResult::kShed;
      ring_[(head_ + count_) % capacity_] = std::move(item);
      count_ += 1;
    }
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // fully drained (false). Closed-but-nonempty queues keep delivering, so
  // every accepted request is eventually served.
  bool pop(T& out) {
    std::unique_lock<std::mutex> guard(mutex_);
    not_empty_.wait(guard, [this] { return count_ != 0 || closed_; });
    if (count_ == 0) return false;
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
    if (count_ == 0) return false;
    take_head(out);
    return true;
  }

  // Rejects future pushes and wakes all poppers. Idempotent. Closed is
  // terminal: pushes fail forever, pops drain what remains.
  void close() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  // Instantaneous depth; a point-in-time read that concurrent pushes and
  // pops may move immediately.
  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return count_;
  }

  // The clamped capacity (construction clamps 0 to 1); constant, so
  // callers may derive admission thresholds from it once.
  std::size_t capacity() const { return capacity_; }

 private:
  // Caller holds mutex_ and count_ > 0. Resets the slot: a moved-from
  // element may still own resources (arena handles, strings), and leaving
  // it in the ring keeps them alive until the slot happens to be
  // overwritten — a leak-by-delay under low load.
  void take_head(T& out) {
    out = std::move(ring_[head_]);
    ring_[head_] = T{};
    head_ = (head_ + 1) % capacity_;
    count_ -= 1;
  }

  // Cache-line placement: the immutable fields (capacity_, the ring's
  // control block — its data pointer never moves after construction) share
  // a read-only line, while the mutex sits on its own line *with* the
  // cursors it guards — mutex, head_, count_ and closed_ travel together
  // through every push/pop, so splitting them across lines would just add
  // coherence misses, and padding the group keeps neighbouring objects
  // (the shard's BlockingAslMutex, another queue in an array) from sharing
  // a line with this queue's hottest word.
  const std::size_t capacity_;
  std::vector<T> ring_;   // ring buffer: [head_, head_ + count_) mod capacity
  alignas(kCacheLine) mutable std::mutex mutex_;
  std::size_t head_ = 0;  // guarded by mutex_
  std::size_t count_ = 0;
  bool closed_ = false;
  std::condition_variable not_empty_;
};

}  // namespace asl::server
