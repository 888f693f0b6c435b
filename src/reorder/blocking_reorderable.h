// Blocking reorderable lock — the Bench-6 (Figure 8h/8i) variant for
// core-oversubscribed systems.
//
// Two changes versus ReorderableLock, both from Section 4.1 Bench-6:
//  * the substrate is a *blocking, unfair* lock (pthread_mutex): a FIFO
//    spin-then-park substrate would put every waiter's wakeup latency on the
//    critical path;
//  * standby competitors yield the CPU with nanosleep between status checks
//    ("the sleep time is set in a back-off manner") instead of busy-waiting,
//    because with 2 threads per core a spinning standby competitor steals
//    cycles from the lock holder.
//
// The big-core path (lock_immediately) spins briefly before it parks. It
// tries the substrate once (an uncontended acquisition reads no clock);
// while the lock is held it polls is_free(), then try_lock(), with
// cpu_relax() between polls, and parks in the substrate's lock() once
// kBigCoreSpin has passed. Without the spin a big caller parks at once, and
// when the little callers' windows have collapsed (every SLO violated,
// DESIGN.md §7) the barging substrate hands them most acquisitions while
// the parked big caller waits out its futex wake: the paper's order, big
// cores first and little cores on standby, inverts.
//
// Bench-6's premise still holds: standby competitors sleep, and the one
// spin is bounded. With 2 threads per core a big caller whose holder shares
// its CPU cannot see the release while it spins, so it burns the bound and
// then parks as before; DESIGN.md §4 measures that cost.
#pragma once

#include <cstdint>

#include "platform/spin.h"
#include "platform/time.h"
#include "locks/lock_concepts.h"
#include "locks/pthread_lock.h"
#include "reorder/reorderable.h"

namespace asl {

template <Lockable Blocking = PthreadLock>
class BlockingReorderableLock {
 public:
  // Longest a big-core caller spins on a held lock before it parks. Longer
  // than a little worker's critical section (traced hash_contended runs
  // read lock_hold p99 6.8-7.8 us on a 4-vCPU host), so a spinning caller
  // usually sees the release; shorter than the 35-85 us a parked big worker
  // waited under overload, so giving up costs less than the wake it was
  // meant to avoid.
  static constexpr Nanos kBigCoreSpin = 20 * kNanosPerMicro;

  BlockingReorderableLock() = default;
  BlockingReorderableLock(const BlockingReorderableLock&) = delete;
  BlockingReorderableLock& operator=(const BlockingReorderableLock&) = delete;

  void lock_immediately() {
    if (lock_.try_lock()) return;
    const Nanos deadline = now_ns() + kBigCoreSpin;
    do {
      cpu_relax();
      if (lock_.is_free() && lock_.try_lock()) return;
    } while (now_ns() < deadline);
    lock_.lock();
  }

  void lock_reorder(Nanos window) {
    if (window > kMaxReorderWindow) window = kMaxReorderWindow;
    if (lock_.is_free()) {
      lock_.lock();
      return;
    }
    const Nanos window_end = now_ns() + window;
    Nanos sleep = kMinSleep;
    while (now_ns() < window_end) {
      if (lock_.is_free()) break;
      // Back-off sleep, capped both absolutely and by the window remainder
      // so expiry is detected promptly.
      const Nanos now = now_ns();
      if (now >= window_end) break;
      Nanos this_sleep = sleep;
      if (now + this_sleep > window_end) this_sleep = window_end - now;
      sleep_ns(this_sleep);
      if (sleep < kMaxSleep) sleep <<= 1;
    }
    lock_.lock();
  }

  void lock() { lock_immediately(); }
  bool try_lock() { return lock_.try_lock(); }
  void unlock() { lock_.unlock(); }
  bool is_free() const { return lock_.is_free(); }

  Blocking& substrate() { return lock_; }

 private:
  static constexpr Nanos kMinSleep = 1 * kNanosPerMicro;
  static constexpr Nanos kMaxSleep = 1 * kNanosPerMilli;

  Blocking lock_;
};

}  // namespace asl
