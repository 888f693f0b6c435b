// Reorderable lock tests (Algorithm 1): standby semantics, window bounds,
// reordering behaviour, starvation freedom, blocking variant.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "locks/mcs.h"
#include "locks/ticket.h"
#include "platform/time.h"
#include "reorder/blocking_reorderable.h"
#include "reorder/reorderable.h"

namespace asl {
namespace {

template <typename L>
class ReorderableTypes : public ::testing::Test {
 public:
  ReorderableLock<L> lock;
};
using Substrates = ::testing::Types<McsLock, TicketLock>;
TYPED_TEST_SUITE(ReorderableTypes, Substrates);

TYPED_TEST(ReorderableTypes, ImmediateLockUnlock) {
  this->lock.lock_immediately();
  EXPECT_FALSE(this->lock.is_free());
  this->lock.unlock();
  EXPECT_TRUE(this->lock.is_free());
}

TYPED_TEST(ReorderableTypes, ReorderOnFreeLockAcquiresFast) {
  const Nanos t0 = now_ns();
  this->lock.lock_reorder(kMaxReorderWindow);
  const Nanos elapsed = now_ns() - t0;
  EXPECT_FALSE(this->lock.is_free());
  // Free lock: Algorithm 1 line 7 short-circuits; no window wait at all.
  EXPECT_LT(elapsed, 5 * kNanosPerMilli);
  this->lock.unlock();
}

TYPED_TEST(ReorderableTypes, ZeroWindowDegeneratesToFifo) {
  // Held lock + zero window: the caller enqueues immediately (LibASL-0 is
  // "the same as the MCS lock").
  this->lock.lock_immediately();
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    this->lock.lock_reorder(0);
    acquired.store(true);
    this->lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());
  this->lock.unlock();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TYPED_TEST(ReorderableTypes, StandbyWaitsOutTheWindow) {
  // Lock held the whole time: a reorder acquisition with window W must not
  // enqueue before ~W has elapsed (it stands by), and must eventually get
  // the lock after release.
  this->lock.lock_immediately();
  const Nanos window = 80 * kNanosPerMilli;
  std::atomic<Nanos> acquired_at{0};
  const Nanos t0 = now_ns();
  std::thread t([&] {
    this->lock.lock_reorder(window);
    acquired_at.store(now_ns());
    this->lock.unlock();
  });
  // Hold past the window so the standby must expire and enqueue.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  this->lock.unlock();
  t.join();
  EXPECT_GE(acquired_at.load() - t0, window);
}

TYPED_TEST(ReorderableTypes, ImmediateOvertakesStandby) {
  // The core reordering property: while a standby competitor waits, a later
  // lock_immediately caller acquires first.
  this->lock.lock_immediately();
  std::vector<int> order;
  std::mutex order_mutex;
  std::atomic<bool> standby_started{false};
  std::thread standby([&] {
    standby_started.store(true);
    this->lock.lock_reorder(kMaxReorderWindow);
    std::lock_guard<std::mutex> g(order_mutex);
    order.push_back(1);  // standby (little core)
    this->lock.unlock();
  });
  while (!standby_started.load()) {
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread immediate([&] {
    this->lock.lock_immediately();  // arrives later than the standby
    {
      std::lock_guard<std::mutex> g(order_mutex);
      order.push_back(0);  // big core
    }
    this->lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  this->lock.unlock();
  immediate.join();
  standby.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0) << "lock_immediately did not overtake the standby";
  EXPECT_EQ(order[1], 1);
}

TYPED_TEST(ReorderableTypes, WindowIsClampedToMax) {
  // A ridiculous window must still make progress within the starvation
  // bound (kMaxReorderWindow = 100ms), proving the clamp.
  this->lock.lock_immediately();
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    this->lock.lock_reorder(~0ULL);  // "infinite" request
    acquired.store(true);
    this->lock.unlock();
  });
  // Keep the lock held; after the max window the standby must enqueue, and
  // the moment we release it must acquire.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  this->lock.unlock();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TYPED_TEST(ReorderableTypes, TryLockPassesThrough) {
  EXPECT_TRUE(this->lock.try_lock());
  std::atomic<int> r{-1};
  std::thread([&] { r = this->lock.try_lock() ? 1 : 0; }).join();
  EXPECT_EQ(r.load(), 0);
  this->lock.unlock();
}

TYPED_TEST(ReorderableTypes, MutualExclusionMixedModes) {
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          this->lock.lock_immediately();
        } else {
          this->lock.lock_reorder(10 * kNanosPerMicro);
        }
        counter = counter + 1;
        this->lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(BlockingReorderable, BasicLockUnlock) {
  BlockingReorderableLock<> lock;
  lock.lock_immediately();
  EXPECT_FALSE(lock.is_free());
  lock.unlock();
  EXPECT_TRUE(lock.is_free());
}

TEST(BlockingReorderable, ReorderSleepsThroughWindow) {
  BlockingReorderableLock<> lock;
  lock.lock_immediately();
  const Nanos window = 40 * kNanosPerMilli;
  std::atomic<Nanos> acquired_at{0};
  const Nanos t0 = now_ns();
  std::thread t([&] {
    lock.lock_reorder(window);
    acquired_at.store(now_ns());
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  lock.unlock();
  t.join();
  EXPECT_GE(acquired_at.load() - t0, window);
}

TEST(BlockingReorderable, ClaimsFreedLockBeforeExpiry) {
  BlockingReorderableLock<> lock;
  lock.lock_immediately();
  std::atomic<Nanos> acquired_at{0};
  const Nanos t0 = now_ns();
  std::thread t([&] {
    lock.lock_reorder(kMaxReorderWindow);
    acquired_at.store(now_ns());
    lock.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  lock.unlock();  // free long before the 100ms window expires
  t.join();
  // The sleeping standby polls with backoff; it must claim the lock well
  // before the full window would have expired.
  EXPECT_LT(acquired_at.load() - t0, 90 * kNanosPerMilli);
}

TEST(BlockingReorderable, MutualExclusion) {
  BlockingReorderableLock<> lock;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        if (t % 2 == 0) {
          lock.lock_immediately();
        } else {
          lock.lock_reorder(5 * kNanosPerMicro);
        }
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 8000u);
}

// A substrate that follows a script and counts every call: held until the
// `frees_at`-th is_free() poll reports it free (0: never). Single-threaded;
// lock() records when it was called and returns at once.
class ScriptedLock {
 public:
  void lock() {
    ++lock_calls;
    lock_called_at = now_ns();
    held = true;
  }
  bool try_lock() {
    ++try_lock_calls;
    if (held) return false;
    held = true;
    return true;
  }
  void unlock() { held = false; }
  bool is_free() const {
    ++is_free_calls;
    if (frees_at != 0 && is_free_calls >= frees_at) held = false;
    return !held;
  }

  int frees_at = 0;
  mutable bool held = true;
  mutable int is_free_calls = 0;
  int try_lock_calls = 0;
  int lock_calls = 0;
  Nanos lock_called_at = 0;
};
static_assert(Lockable<ScriptedLock>);

TEST(BlockingReorderableSpin, BigCoreTakesLockFreedWhileSpinning) {
  BlockingReorderableLock<ScriptedLock> lock;
  ScriptedLock& s = lock.substrate();
  s.frees_at = 3;
  lock.lock_immediately();
  EXPECT_EQ(s.is_free_calls, 3);
  EXPECT_EQ(s.try_lock_calls, 2) << "the first try, then the one that wins";
  EXPECT_EQ(s.lock_calls, 0) << "parked although the lock freed";
}

TEST(BlockingReorderableSpin, BigCoreParksOnceAfterTheBound) {
  BlockingReorderableLock<ScriptedLock> lock;
  ScriptedLock& s = lock.substrate();
  const Nanos t0 = now_ns();
  lock.lock_immediately();
  EXPECT_EQ(s.lock_calls, 1);
  EXPECT_GT(s.is_free_calls, 0);
  EXPECT_GE(s.lock_called_at - t0,
            BlockingReorderableLock<ScriptedLock>::kBigCoreSpin)
      << "parked before the spin bound";
}

TEST(Reorderable, SubstrateAccessor) {
  ReorderableLock<McsLock> lock;
  EXPECT_TRUE(lock.substrate().is_free());
}

}  // namespace
}  // namespace asl
