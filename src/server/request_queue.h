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
// The ring. A lock-free bounded MPMC ring after Vyukov's bounded queue:
// each cell holds a sequence number and the item, and two cursors, each on
// its own cache line, count the positions claimed so far. The cell of
// position p reads seq == p while it is free for the push of p, p + 1 once
// that push published it, and p + slots once the pop of p released it,
// which frees it for the push of p + slots. A push claims p with a CAS on
// the enqueue cursor, writes the cell and publishes it by storing p + 1; a
// pop claims p with a CAS on the dequeue cursor once the cell reads p + 1,
// moves the item out and releases the cell. No push, pop or batch-extension
// pop takes a lock or makes a system call. Any capacity is legal; a
// one-slot queue still gets two cells, since with one cell the released
// and the published numbers of a position would coincide.
//
// Admission is exact. try_push_below reads the enqueue cursor, then the
// dequeue cursor, then the enqueue cursor again; if it has not moved, the
// difference was the depth at the moment the dequeue cursor was read. A
// shed or a full refusal linearizes at that moment. An admission
// linearizes at its CAS, which succeeds only if the enqueue cursor still
// holds the value read, so pops alone ran in between and the depth can only
// be lower: no push is admitted above its limit. The depth counts claimed
// positions, so kFull still means only "closed, or depth >= capacity". A
// push below capacity whose cell the previous lap's pop has claimed but
// not yet released waits the few nanoseconds until the release; it does
// not refuse. Every cursor access is seq_cst, which on x86 costs a plain
// load or the lock prefix the CAS carries anyway.
//
// close() sets a closed bit in the enqueue cursor with fetch_or, so a push
// that races it fails its CAS, sees the bit and returns kFull. A pop
// returns false only once the queue is closed and every position that was
// claimed has also been popped, so every push that returned kOk is served.
//
// The parking lot. pop(out, spin_ns) tries the ring, then with a budget
// above 0 keeps trying it for up to spin_ns; close() ends the spin. A
// spinning popper takes an arrival without a futex wake on either side, so
// the caller grants a budget only to a popper that owns its CPU
// (KvService::worker_loop); one that shares a CPU would burn its
// neighbour's time. Only then, and only while the ring's head cell is not
// published, does the popper park: it takes park_mutex_, increments
// parked_, checks the head cell again and waits on the condition variable,
// once. A pusher publishes its cell, then reads parked_, and only when it
// is non-zero takes park_mutex_ and calls notify_one. A spinning popper
// never needs a notify. A woken popper leaves parked_, tries the ring and
// spins for its budget again before it parks again; one that went straight
// back to waiting would stay counted, and every push would pay a futex
// wake to rouse it for an item that a spinner then takes.
//
// No lost wake-up. The publishing store and every parked_ access are
// seq_cst (not a standalone fence: GCC warns about atomic_thread_fence
// under -fsanitize=thread), so they fall in one total order. A parking
// popper increments parked_ before it reads the head cell; a pusher stores
// its cell before it reads parked_. Either the popper's read sees the
// publish, and it does not wait, or the pusher's read sees the increment;
// then it takes park_mutex_, which the popper holds from before the
// increment until it waits, so the notify_one that follows reaches a
// waiting popper. A published cell behind the head needs no wake-up of its
// own: whoever takes the head pops again and finds it. pop() rechecks the
// ring after every wait, so a spurious or stale wake-up costs one more try.
// close() takes the mutex after it sets the bit and notifies every parked
// popper; a popper never parks on a closed queue, it drains it. While a
// push that claimed before close() has yet to publish, the drainer waits
// with SpinWait, which yields after a short spin, so a pusher preempted on
// the drainer's CPU gets it back.
#pragma once

#include <algorithm>
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
      : capacity_(capacity < 1 ? 1 : capacity),
        cells_(std::max<std::size_t>(capacity_, 2)) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking push; false when the queue is full or closed (the caller
  // counts the rejection). Equivalent to try_push_below(item, capacity()).
  bool try_push(T item) {
    return try_push_below(std::move(item), capacity_) == PushResult::kOk;
  }

  // Non-blocking push with a caller-supplied depth limit: admits only while
  // the current depth is strictly below min(limit, capacity), exactly
  // (header comment: the linearization points). A limit >= capacity
  // degenerates to plain try_push (kShed is never returned); a limit of 0
  // sheds everything for that class while the queue stays open to others.
  PushResult try_push_below(T item, std::size_t limit) {
    std::uint64_t pos = 0;
    for (;;) {
      std::uint64_t depth = 0;
      pos = cursors(depth);
      if ((pos & kClosed) != 0 || depth >= capacity_) return PushResult::kFull;
      if (depth >= limit) return PushResult::kShed;
      if (enq_.compare_exchange_weak(pos, pos + 1)) break;
    }
    Cell& cell = cells_[pos % cells_.size()];
    // depth < capacity: the previous lap's pop has claimed this cell, but
    // it may not have released it yet (it yields to that pop if it was
    // preempted on this CPU).
    SpinWait wait;
    while (cell.seq.load(std::memory_order_acquire) != pos) wait.pause();
    cell.item = std::move(item);
    cell.seq.store(pos + 1);  // seq_cst (header comment: no lost wake-up)
    if (parked_.load() != 0) {
      { std::lock_guard<std::mutex> guard(park_mutex_); }
      not_empty_.notify_one();
    }
    return PushResult::kOk;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // fully drained (false). Closed-but-nonempty queues keep delivering, so
  // every accepted request is eventually served. With spin_ns > 0 the
  // popper keeps trying the ring for up to spin_ns before it parks, and
  // again after each wake-up (header comment).
  bool pop(T& out, Nanos spin_ns = 0) {
    Nanos deadline = spin_ns > 0 ? now_ns() + spin_ns : 0;
    SpinWait drain;
    while (!try_pop(out)) {
      const std::uint64_t pos = enq_.load();
      if ((pos & kClosed) != 0) {
        // Nothing more can be claimed: drained once the pops have claimed
        // every position, else a push that claimed before close() has yet
        // to publish (it yields to that push if it was preempted).
        if ((pos & ~kClosed) == deq_.load()) return false;
        drain.pause();
      } else if (now_ns() < deadline) {
        cpu_relax();
      } else {
        park();
        if (spin_ns > 0) deadline = now_ns() + spin_ns;
      }
    }
    return true;
  }

  // Non-blocking pop: true and an item when one is immediately available,
  // false otherwise (empty, its head not yet published, or closed and
  // drained). Workers use this to extend a batch after the blocking pop
  // delivered its head — the batch grows only with requests that are
  // already waiting, it never stalls the critical section waiting for
  // arrivals.
  bool try_pop(T& out) {
    std::uint64_t pos = deq_.load();
    for (;;) {
      Cell& cell = cells_[pos % cells_.size()];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == pos + 1) {
        if (deq_.compare_exchange_weak(pos, pos + 1)) {
          // Resets the slot: a moved-from element may still own resources
          // (arena handles, strings), and leaving it in the ring keeps them
          // alive until the slot happens to be overwritten — a
          // leak-by-delay under low load.
          out = std::move(cell.item);
          cell.item = T{};
          cell.seq.store(pos + cells_.size(), std::memory_order_release);
          return true;
        }
      } else if (seq < pos + 1) {
        return false;  // the push of pos has not published yet
      } else {
        pos = deq_.load();  // another popper took pos
      }
    }
  }

  // Rejects future pushes and wakes all poppers. Idempotent. Closed is
  // terminal: pushes fail forever, pops drain what remains.
  void close() {
    enq_.fetch_or(kClosed);
    { std::lock_guard<std::mutex> guard(park_mutex_); }
    not_empty_.notify_all();
  }

  // Instantaneous depth, the difference of the two cursors read without any
  // lock; a point-in-time read that concurrent pushes and pops may move
  // immediately.
  std::size_t size() const {
    std::uint64_t depth = 0;
    cursors(depth);
    return static_cast<std::size_t>(depth);
  }

  // The clamped capacity (construction clamps 0 to 1); constant, so
  // callers may derive admission thresholds from it once.
  std::size_t capacity() const { return capacity_; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq;
    T item{};
  };

  // The enqueue cursor's closed bit; positions never reach it.
  static constexpr std::uint64_t kClosed = std::uint64_t{1} << 63;

  // Reads the cursors at one moment: returns the enqueue cursor (closed bit
  // included) and sets `depth` to the positions pushes had claimed and pops
  // had not when the dequeue cursor was read (header comment: admission).
  std::uint64_t cursors(std::uint64_t& depth) const {
    std::uint64_t pos = enq_.load();
    for (;;) {
      const std::uint64_t head = deq_.load();
      const std::uint64_t again = enq_.load();
      if (again == pos) {
        depth = (pos & ~kClosed) - head;
        return pos;
      }
      pos = again;
    }
  }

  // The parking lot (header comment: no lost wake-up). Waits at most once,
  // and only while the head cell is not published and the queue is open;
  // pop()'s loop rechecks the ring after every return.
  void park() {
    std::unique_lock<std::mutex> guard(park_mutex_);
    parked_.fetch_add(1);
    const std::uint64_t pos = deq_.load();
    if (cells_[pos % cells_.size()].seq.load() < pos + 1 &&
        (enq_.load() & kClosed) == 0) {
      not_empty_.wait(guard);
    }
    parked_.fetch_sub(1);
  }

  // Cache-line placement: the immutable fields (capacity_, the cells'
  // control block — its data pointer never moves after construction) share
  // a read-only line; each cursor has a line of its own, so pushers and
  // poppers do not invalidate each other's cursor; parked_, which every
  // push reads, sits with the park mutex and condition variable that only
  // a parking popper and its waker touch.
  const std::size_t capacity_;
  std::vector<Cell> cells_;
  alignas(kCacheLine) std::atomic<std::uint64_t> enq_{0};  // | kClosed
  alignas(kCacheLine) std::atomic<std::uint64_t> deq_{0};
  alignas(kCacheLine) std::atomic<std::uint32_t> parked_{0};
  std::mutex park_mutex_;
  std::condition_variable not_empty_;
};

}  // namespace asl::server
