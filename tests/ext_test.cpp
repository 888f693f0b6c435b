// CondVar over LibASL mutexes (litl technique, Section 3.3): wake-up,
// release-and-reacquire of the mutex, timed wait, a producer/consumer
// hand-off between a big and a little core, and broadcast. These cases are
// the only exercise of CondVar's wait/signal protocol, so CI runs them
// under ThreadSanitizer too.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "asl/condvar.h"
#include "asl/libasl.h"
#include "platform/time.h"

namespace asl {
namespace {

// ----------------------------------------------------------------- CondVar

TEST(CondVar, SignalWakesWaiter) {
  AslMutex<McsLock> mutex;
  CondVar cv;
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    mutex.lock();
    ready.store(true);
    while (!woke.load()) {
      cv.wait(mutex);
      woke.store(true);
    }
    mutex.unlock();
  });
  while (!ready.load()) {
  }
  // Signal until the waiter confirms (closes startup races).
  while (!woke.load()) {
    cv.signal();
    sleep_ns(kNanosPerMilli);
  }
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(CondVar, WaitReleasesAndReacquiresMutex) {
  AslMutex<McsLock> mutex;
  CondVar cv;
  std::atomic<int> stage{0};
  std::thread waiter([&] {
    mutex.lock();
    stage.store(1);
    cv.wait(mutex);
    // Mutex must be held again here.
    EXPECT_FALSE(mutex.is_free());
    stage.store(2);
    mutex.unlock();
  });
  while (stage.load() != 1) {
  }
  // The waiter is blocked in wait(): the mutex must be acquirable.
  bool acquired = false;
  for (int i = 0; i < 1000 && !acquired; ++i) {
    acquired = mutex.try_lock();
    sleep_ns(kNanosPerMilli);
  }
  ASSERT_TRUE(acquired) << "wait() did not release the mutex";
  mutex.unlock();
  while (stage.load() != 2) {
    cv.signal();
    sleep_ns(kNanosPerMilli);
  }
  waiter.join();
}

TEST(CondVar, TimedWaitTimesOut) {
  AslMutex<McsLock> mutex;
  CondVar cv;
  mutex.lock();
  const Nanos t0 = now_ns();
  const bool signalled = cv.wait_for(mutex, 20 * kNanosPerMilli);
  const Nanos elapsed = now_ns() - t0;
  EXPECT_FALSE(signalled);
  EXPECT_GE(elapsed, 15 * kNanosPerMilli);
  EXPECT_FALSE(mutex.is_free());  // reacquired after timeout
  mutex.unlock();
}

TEST(CondVar, ProducerConsumerQueue) {
  AslMutex<McsLock> mutex;
  CondVar cv;
  std::deque<int> queue;
  constexpr int kItems = 2000;
  std::int64_t consumed_sum = 0;

  std::thread consumer([&] {
    ScopedCoreType little(CoreType::kLittle);
    for (int i = 0; i < kItems; ++i) {
      mutex.lock();
      while (queue.empty()) {
        cv.wait(mutex);
      }
      consumed_sum += queue.front();
      queue.pop_front();
      mutex.unlock();
    }
  });
  std::thread producer([&] {
    ScopedCoreType big(CoreType::kBig);
    for (int i = 0; i < kItems; ++i) {
      mutex.lock();
      queue.push_back(i);
      mutex.unlock();
      cv.signal();
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(consumed_sum,
            static_cast<std::int64_t>(kItems) * (kItems - 1) / 2);
  EXPECT_TRUE(queue.empty());
}

TEST(CondVar, BroadcastWakesAllWaiters) {
  AslMutex<McsLock> mutex;
  CondVar cv;
  constexpr int kWaiters = 4;
  std::atomic<int> waiting{0};
  std::atomic<bool> go{false};
  std::atomic<int> woke{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      mutex.lock();
      waiting.fetch_add(1);
      while (!go.load()) {
        cv.wait(mutex);
      }
      woke.fetch_add(1);
      mutex.unlock();
    });
  }
  while (waiting.load() != kWaiters) {
  }
  sleep_ns(10 * kNanosPerMilli);  // let them reach cv.wait
  go.store(true);
  while (woke.load() != kWaiters) {
    cv.broadcast();
    sleep_ns(kNanosPerMilli);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(woke.load(), kWaiters);
}

}  // namespace
}  // namespace asl
