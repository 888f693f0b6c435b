// Platform substrate tests: cache-line geometry, clocks, RNG, thread ids,
// topology oracle, backoff, the affinity mask.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "platform/affinity.h"
#include "platform/cacheline.h"
#include "platform/raw_spinlock.h"
#include "platform/rng.h"
#include "platform/spin.h"
#include "platform/thread_registry.h"
#include "platform/time.h"
#include "platform/topology.h"

namespace asl {
namespace {

TEST(Cacheline, PaddedTypesOccupyFullLines) {
  EXPECT_EQ(sizeof(CachePadded<char>), kCacheLine);
  EXPECT_EQ(sizeof(CachePadded<std::uint64_t>), kCacheLine);
  EXPECT_EQ(alignof(CachePadded<int>), kCacheLine);
  EXPECT_EQ(sizeof(SharedLine), kCacheLine);
}

TEST(Cacheline, PaddedArrayElementsDoNotShareLines) {
  CachePadded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    auto a = reinterpret_cast<std::uintptr_t>(&arr[i].value);
    auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1].value);
    EXPECT_GE(b - a, kCacheLine);
  }
}

TEST(Cacheline, PaddedValueAccessors) {
  CachePadded<int> p(41);
  EXPECT_EQ(*p, 41);
  *p += 1;
  EXPECT_EQ(p.value, 42);
}

TEST(Time, MonotonicClock) {
  const Nanos a = now_ns();
  const Nanos b = now_ns();
  EXPECT_LE(a, b);
}

TEST(Time, SleepAdvancesClock) {
  const Nanos a = now_ns();
  sleep_ns(2 * kNanosPerMilli);
  const Nanos b = now_ns();
  EXPECT_GE(b - a, 2 * kNanosPerMilli);
}

TEST(Time, SpinUntilReachesDeadline) {
  const Nanos deadline = now_ns() + 200 * kNanosPerMicro;
  const Nanos reached = spin_until(deadline);
  EXPECT_GE(reached, deadline);
}

TEST(Time, SpinNopsScalesRoughlyLinearly) {
  // Not a timing assertion (CI noise); just confirms the loop executes.
  spin_nops(0);
  spin_nops(1000);
  SUCCEED();
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.25, 0.02);
}

TEST(ThreadRegistry, IdIsStableWithinThread) {
  const std::uint32_t a = thread_id();
  const std::uint32_t b = thread_id();
  EXPECT_EQ(a, b);
}

TEST(ThreadRegistry, IdsAreDistinctAcrossLiveThreads) {
  constexpr int kThreads = 8;
  std::vector<std::uint32_t> ids(kThreads);
  std::atomic<int> arrived{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ids[i] = thread_id();
      arrived.fetch_add(1);
      while (!release.load()) {
      }
    });
  }
  while (arrived.load() != kThreads) {
  }
  release.store(true);
  for (auto& t : threads) t.join();
  std::set<std::uint32_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
}

TEST(ThreadRegistry, IdsAreRecycledAfterThreadExit) {
  std::uint32_t first = 0;
  std::thread([&] { first = thread_id(); }).join();
  std::uint32_t second = 0;
  std::thread([&] { second = thread_id(); }).join();
  EXPECT_EQ(first, second);  // freed id is reused
}

TEST(ThreadRegistry, IdsBelowMax) {
  EXPECT_LT(thread_id(), kMaxThreads);
}

TEST(Topology, DefaultIsAllBig) {
  Topology::instance().configure({});
  EXPECT_EQ(Topology::instance().core_type(0), CoreType::kBig);
  EXPECT_TRUE(is_big_core());
}

TEST(Topology, BandedConfiguration) {
  Topology::instance().configure_banded(4, 4);
  EXPECT_EQ(Topology::instance().num_big(), 4u);
  EXPECT_EQ(Topology::instance().num_little(), 4u);
  EXPECT_EQ(Topology::instance().num_cores(), 8u);
  EXPECT_EQ(Topology::instance().core_type(0), CoreType::kBig);
  EXPECT_EQ(Topology::instance().core_type(3), CoreType::kBig);
  EXPECT_EQ(Topology::instance().core_type(4), CoreType::kLittle);
  EXPECT_EQ(Topology::instance().core_type(7), CoreType::kLittle);
  Topology::instance().configure({});
}

TEST(Topology, PerThreadOverrideWins) {
  Topology::instance().configure({});  // all big
  {
    ScopedCoreType scoped(CoreType::kLittle);
    EXPECT_FALSE(is_big_core());
  }
  EXPECT_TRUE(is_big_core());
}

TEST(Topology, OverrideIsPerThread) {
  ScopedCoreType scoped(CoreType::kLittle);
  bool other_thread_big = false;
  std::thread([&] { other_thread_big = is_big_core(); }).join();
  EXPECT_TRUE(other_thread_big);
  EXPECT_FALSE(is_big_core());
}

TEST(Topology, OutOfRangeCpuDefaultsBig) {
  Topology::instance().configure_banded(2, 2);
  EXPECT_EQ(Topology::instance().core_type(99), CoreType::kBig);
  Topology::instance().configure({});
}

TEST(Topology, DescribeMentionsCounts) {
  Topology::instance().configure_banded(4, 4);
  const std::string desc = Topology::instance().describe();
  EXPECT_NE(desc.find("4 big"), std::string::npos);
  EXPECT_NE(desc.find("4 little"), std::string::npos);
  Topology::instance().configure({});
}

TEST(Affinity, AllowedCpusIsTheStartupMaskWhateverThreadsPinLater) {
  // The test's main thread never pins itself, so its mask is the one the
  // process started with.
  const std::uint32_t at_start = detail::affinity_cpus();
  EXPECT_EQ(allowed_cpus(), at_start);
  std::uint32_t seen_pinned = 0;
  std::thread pinned([&] {
    const int cpu = current_cpu();
    ASSERT_GE(cpu, 0);
    ASSERT_TRUE(pin_to_cpu(static_cast<std::uint32_t>(cpu)));
    EXPECT_EQ(detail::affinity_cpus(), 1u) << "the pin narrowed the mask";
    seen_pinned = allowed_cpus();
  });
  pinned.join();
  EXPECT_EQ(seen_pinned, at_start);
}

TEST(Backoff, GrowsExponentiallyAndSaturates) {
  Backoff b(2, 16);
  EXPECT_EQ(b.current(), 2u);
  b.pause();
  EXPECT_EQ(b.current(), 4u);
  b.pause();
  b.pause();
  EXPECT_EQ(b.current(), 16u);
  b.pause();
  EXPECT_EQ(b.current(), 16u);  // saturated
}

TEST(Backoff, ResetRestoresInitial) {
  Backoff b(1, 64);
  b.pause();
  b.pause();
  b.reset(1);
  EXPECT_EQ(b.current(), 1u);
}

TEST(RawSpinLock, MutualExclusionUnderContention) {
  RawSpinLock lock;
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(RawSpinLock, TryLockSemantics) {
  RawSpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

}  // namespace
}  // namespace asl
