// Server-layer tests: shard routing, bounded-queue backpressure, drain
// semantics on stop(), per-epoch SLO accounting across request classes, and
// the open-loop generator's conservation laws.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asl/runtime.h"
#include "db/mvkv.h"
#include "platform/time.h"
#include "server/kv_service.h"
#include "server/replay.h"
#include "server/request_queue.h"
#include "server/scenarios.h"
#include "server/sim_kv_service.h"
#include "server/telemetry.h"
#include "workload/keydist.h"
#include "workload/open_loop.h"
#include "workload/trace.h"

namespace asl::server {
namespace {

std::uint64_t epoch_completions(int epoch_id) {
  return EpochRegistry::instance().completions(epoch_id);
}

// ------------------------------------------------------------ shard routing

TEST(ShardRouting, StableInRangeAndCoversAllShards) {
  KvServiceConfig cfg;
  cfg.num_shards = 8;
  cfg.classes.push_back(RequestClass{"route-test", 0});
  KvService service(cfg);

  std::vector<std::uint64_t> hits(cfg.num_shards, 0);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const std::uint32_t shard = service.shard_of(key);
    ASSERT_LT(shard, cfg.num_shards);
    EXPECT_EQ(shard, service.shard_of(key)) << "routing must be stable";
    hits[shard] += 1;
  }
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    // Hash striping spreads a dense key range: no empty shard, no shard
    // with more than a quarter of the traffic at 8 shards.
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never hit";
    EXPECT_LT(hits[s], 1024u) << "shard " << s << " absorbs too much";
  }
}

TEST(ShardRouting, RequestsLandOnTheirShardQueue) {
  KvServiceConfig cfg;
  cfg.num_shards = 4;
  cfg.queue_capacity = 64;
  cfg.classes.push_back(RequestClass{"route-queue-test", 0});
  KvService service(cfg);  // not started: requests sit in the queues

  const std::uint64_t key = 12345;
  const std::uint32_t shard = service.shard_of(key);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(service.try_submit(OpType::kGet, key, 0));
  }
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    EXPECT_EQ(service.queue_depth(s), s == shard ? 5u : 0u);
  }
}

// ------------------------------------------------------------- backpressure

TEST(BoundedQueueTest, RejectsWhenFullAndDrainsAfterClose) {
  BoundedQueue<int> queue(3);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  EXPECT_FALSE(queue.try_push(4)) << "capacity must bound the queue";
  EXPECT_EQ(queue.size(), 3u);

  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.try_push(4)) << "pop must free a slot";

  queue.close();
  EXPECT_FALSE(queue.try_push(5)) << "closed queues reject";
  // Closed-but-nonempty queues keep delivering in FIFO order...
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 4);
  // ...and report exhaustion only once drained.
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedQueueTest, CapacityOneAlternatesAndDrainsAfterClose) {
  // The degenerate ring: one slot. Push/pop must alternate cleanly through
  // the wraparound (the positions cycle over the slot's two cells) and
  // close() must keep the drain contract.
  BoundedQueue<int> queue(1);
  EXPECT_EQ(queue.capacity(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.try_push(i)) << "slot must be free after a pop";
    EXPECT_FALSE(queue.try_push(100 + i)) << "capacity-1 queue must be full";
    int out = -1;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(queue.try_push(42));
  queue.close();
  EXPECT_FALSE(queue.try_push(43));
  int out = -1;
  EXPECT_TRUE(queue.pop(out)) << "closed-but-nonempty must still deliver";
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.try_push(7));
  EXPECT_FALSE(queue.try_push(8));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 7);
}

TEST(BoundedQueueTest, TryPushBelowShedsBeforeFullAndDistinguishesBoth) {
  // The tri-state admission: below the limit kOk, at the limit (queue not
  // full) kShed, at capacity or after close() kFull — and a shed leaves the
  // queue untouched, so protected pushes still get the remaining slots.
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.try_push_below(1, 2), PushResult::kOk);
  EXPECT_EQ(queue.try_push_below(2, 2), PushResult::kOk);
  EXPECT_EQ(queue.try_push_below(3, 2), PushResult::kShed)
      << "depth 2 reached the limit";
  EXPECT_EQ(queue.size(), 2u) << "a shed must not enqueue";
  EXPECT_TRUE(queue.try_push(3)) << "protected classes keep the full queue";
  EXPECT_TRUE(queue.try_push(4));
  EXPECT_EQ(queue.try_push_below(5, 2), PushResult::kFull)
      << "capacity exhaustion wins over the watermark";
  queue.close();
  EXPECT_EQ(queue.try_push_below(6, 2), PushResult::kFull)
      << "closed queues report kFull, not kShed";
}

TEST(BoundedQueueTest, LimitAtCapacityNeverSheds) {
  // A watermark exactly at capacity is plain FIFO admission: every
  // rejection is a full-queue rejection, kShed is unreachable.
  BoundedQueue<int> queue(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.try_push_below(i, queue.capacity()), PushResult::kOk);
  }
  EXPECT_EQ(queue.try_push_below(9, queue.capacity()), PushResult::kFull);
  // And a limit beyond capacity behaves identically.
  EXPECT_EQ(queue.try_push_below(9, queue.capacity() + 10),
            PushResult::kFull);
}

TEST(BoundedQueueTest, TryPopIsNonBlockingAndFifo) {
  BoundedQueue<int> queue(4);
  int out = -1;
  EXPECT_FALSE(queue.try_pop(out)) << "empty queue must not block";
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.try_pop(out));
  // Mixed with the blocking pop after close(): same FIFO drain contract.
  EXPECT_TRUE(queue.try_push(3));
  queue.close();
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queue.pop(out));
}

// The hand-off under real threads. A lost wake-up leaves a popper blocked
// forever, so either case hangs rather than fails; ctest's --timeout turns
// that into a failure.

TEST(BoundedQueueTest, CloseWakesEveryBlockedPopper) {
  BoundedQueue<int> queue(4);
  constexpr int kPoppers = 4;
  std::atomic<int> entered{0};
  std::atomic<int> returned_false{0};
  std::atomic<int> returned_true{0};
  std::vector<std::thread> poppers;
  for (int i = 0; i < kPoppers; ++i) {
    poppers.emplace_back([&] {
      entered.fetch_add(1);
      int out = 0;
      (queue.pop(out) ? returned_true : returned_false).fetch_add(1);
    });
  }
  while (entered.load() != kPoppers) std::this_thread::yield();
  // Give the poppers time to park in pop(); one that has not parked yet
  // still has to see the close.
  sleep_ns(20 * kNanosPerMilli);
  EXPECT_EQ(returned_false.load() + returned_true.load(), 0)
      << "pop() returned from an empty, open queue";
  queue.close();
  for (auto& t : poppers) t.join();
  EXPECT_EQ(returned_false.load(), kPoppers);
  EXPECT_EQ(returned_true.load(), 0);
}

// Producers and poppers race on a small ring, so producers keep hitting
// kFull while pops free slots; at capacities 1 and 3 a cell wraps while the
// previous lap's popper is still taking from it. Popper i spins for
// spins[i] before it parks (0: parks at once). Each producer pauses every
// kPauseEvery values, long enough for every spinning budget to run out, so
// the poppers mix spinning and parked states: a push that finds no parked
// popper must still reach some popper. Every value must be popped exactly
// once, and every popper must return after close().
void deliver_each_value_once(std::size_t capacity,
                             const std::vector<Nanos>& spins) {
  BoundedQueue<int> queue(capacity);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  constexpr int kPauseEvery = 1000;
  const Nanos pause = *std::max_element(spins.begin(), spins.end()) + 100'000;
  std::atomic<int> shed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (i % kPauseEvery == kPauseEvery - 1) sleep_ns(pause);
        const int value = p * kPerProducer + i;
        for (;;) {
          const PushResult r = queue.try_push_below(value, queue.capacity());
          if (r == PushResult::kOk) break;
          if (r == PushResult::kShed) shed.fetch_add(1);
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::vector<int>> popped(spins.size());
  std::vector<std::thread> poppers;
  for (std::size_t c = 0; c < spins.size(); ++c) {
    poppers.emplace_back([&queue, &mine = popped[c], spin_ns = spins[c]] {
      int out = 0;
      while (queue.pop(out, spin_ns)) mine.push_back(out);
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : poppers) t.join();

  EXPECT_EQ(shed.load(), 0) << "a limit at capacity never sheds";
  EXPECT_EQ(queue.size(), 0u) << "close() must let the poppers drain";
  std::vector<int> seen(kProducers * kPerProducer, 0);
  for (const auto& mine : popped) {
    for (const int v : mine) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, kProducers * kPerProducer);
      seen[static_cast<std::size_t>(v)] += 1;
    }
  }
  for (std::size_t v = 0; v < seen.size(); ++v) {
    ASSERT_EQ(seen[v], 1) << "value " << v << " popped " << seen[v]
                          << " times";
  }
}

constexpr Nanos kShortSpin = 20 * kNanosPerMicro;

TEST(BoundedQueueTest, ConcurrentProducersAndPoppersDeliverEachValueOnce) {
  deliver_each_value_once(8, {0, 0, 0});
}

TEST(BoundedQueueTest, SpinningPoppersWhoseBudgetRunsOutDeliverEachValueOnce) {
  deliver_each_value_once(8, {kShortSpin, kShortSpin, kShortSpin});
}

// The parking lot beside the spin: two poppers park at once, two spin out
// their budget first.
TEST(BoundedQueueTest, ParkingAndSpinningPoppersDeliverEachValueOnce) {
  deliver_each_value_once(8, {0, 0, kShortSpin, kShortSpin});
}

TEST(BoundedQueueTest, CellsThatWrapMidTakeDeliverEachValueOnce) {
  deliver_each_value_once(1, {0, kShortSpin, kShortSpin});
  deliver_each_value_once(3, {0, 0, kShortSpin});
}

// Admission is exact under racing pushers: into a queue nobody pops, exactly
// min(limit, capacity) pushes are admitted, and the rest are shed below
// capacity or refused as full at it.
TEST(BoundedQueueTest, RacingPushesAdmitExactlyUpToTheLimit) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  static constexpr std::size_t kCapacity = 64;
  const auto race = [](std::size_t limit) {
    BoundedQueue<int> queue(kCapacity);
    std::atomic<bool> go{false};
    std::array<std::atomic<int>, 3> results{};  // indexed by PushResult
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kPerProducer; ++i) {
          const PushResult r = queue.try_push_below(p * kPerProducer + i, limit);
          results[static_cast<std::size_t>(r)].fetch_add(1);
        }
      });
    }
    go.store(true);
    for (auto& t : producers) t.join();
    EXPECT_EQ(queue.size(), std::min(limit, kCapacity));
    return std::array<int, 3>{results[0].load(), results[1].load(),
                              results[2].load()};
  };
  constexpr int kPushes = kProducers * kPerProducer;
  EXPECT_EQ(race(20), (std::array<int, 3>{20, kPushes - 20, 0}))
      << "{kOk, kShed, kFull} with the limit below capacity";
  EXPECT_EQ(race(kCapacity),
            (std::array<int, 3>{static_cast<int>(kCapacity), 0,
                                kPushes - static_cast<int>(kCapacity)}))
      << "{kOk, kShed, kFull} with the limit at capacity";
}

// Pushes race close() while a parking and a spinning popper drain: the
// values popped are exactly the pushes that returned kOk, and a push that
// starts after close() has returned gets kFull.
TEST(BoundedQueueTest, PushesRacingCloseAreServedExactlyWhenAdmitted) {
  BoundedQueue<int> queue(16);
  constexpr int kProducers = 3;
  constexpr int kStride = 10'000'000;  // producer p pushes p * kStride + i
  std::atomic<bool> close_returned{false};
  std::atomic<int> admitted_count{0};
  std::atomic<int> late_pushes_not_full{0};
  std::vector<std::vector<int>> admitted(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kStride; ++i) {
        const bool late = close_returned.load();
        const PushResult r =
            queue.try_push_below(p * kStride + i, queue.capacity());
        if (r == PushResult::kOk) {
          admitted[p].push_back(p * kStride + i);
          admitted_count.fetch_add(1);
        }
        if (late) {
          if (r != PushResult::kFull) late_pushes_not_full.fetch_add(1);
          return;
        }
      }
    });
  }
  const std::vector<Nanos> spins = {0, kShortSpin};
  std::vector<std::vector<int>> popped(spins.size());
  std::vector<std::thread> poppers;
  for (std::size_t c = 0; c < spins.size(); ++c) {
    poppers.emplace_back([&queue, &mine = popped[c], spin_ns = spins[c]] {
      int out = 0;
      while (queue.pop(out, spin_ns)) mine.push_back(out);
    });
  }
  while (admitted_count.load() < 1000) std::this_thread::yield();
  queue.close();
  close_returned.store(true);
  for (auto& t : producers) t.join();
  for (auto& t : poppers) t.join();

  EXPECT_EQ(late_pushes_not_full.load(), 0)
      << "a push that starts after close() returned gets kFull";
  EXPECT_EQ(queue.try_push_below(-1, queue.capacity()), PushResult::kFull);
  const auto sorted = [](const std::vector<std::vector<int>>& parts) {
    std::vector<int> all;
    for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
    std::sort(all.begin(), all.end());
    return all;
  };
  EXPECT_EQ(sorted(popped), sorted(admitted))
      << "every admitted push is popped once, and nothing else is";
}

// A budget no test run reaches: a popper given it never parks, so what it
// returns came through the spin.
constexpr Nanos kEndlessSpin = 600 * kNanosPerSec;

TEST(BoundedQueueTest, SpinningPopTakesPushesMadeDuringTheSpinInFifoOrder) {
  BoundedQueue<int> queue(4);
  constexpr int kValues = 100;
  std::atomic<bool> entered{false};
  std::vector<int> got;
  std::thread popper([&] {
    entered.store(true);
    int out = 0;
    for (int i = 0; i < kValues; ++i) {
      if (!queue.pop(out, kEndlessSpin)) return;
      got.push_back(out);
    }
  });
  while (!entered.load()) std::this_thread::yield();
  for (int v = 0; v < kValues; ++v) {
    while (!queue.try_push(v)) std::this_thread::yield();
  }
  popper.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kValues));
  for (int v = 0; v < kValues; ++v) EXPECT_EQ(got[v], v) << "FIFO order";
}

TEST(BoundedQueueTest, CloseEndsASpinAndAClosedQueueStillDrains) {
  BoundedQueue<int> queue(4);
  std::atomic<bool> entered{false};
  std::atomic<int> returned{-1};
  std::thread popper([&] {
    entered.store(true);
    int out = 0;
    returned.store(queue.pop(out, kEndlessSpin) ? 1 : 0);
  });
  while (!entered.load()) std::this_thread::yield();
  queue.close();
  popper.join();  // hangs, and so fails under ctest's timeout, if the
                  // spin ignored close()
  EXPECT_EQ(returned.load(), 0) << "close() on an empty queue pops nothing";

  BoundedQueue<int> closed(4);
  EXPECT_TRUE(closed.try_push(1));
  EXPECT_TRUE(closed.try_push(2));
  closed.close();
  int out = 0;
  EXPECT_TRUE(closed.pop(out, kEndlessSpin));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(closed.pop(out, kEndlessSpin));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(closed.pop(out, kEndlessSpin));
}

// The ownership rule as a pure function: only a pinned worker of a service
// with fewer workers than allowed CPUs spins.
TEST(PopSpinBudget, OnlyAWorkerThatOwnsItsCpuSpins) {
  EXPECT_EQ(pop_spin_budget(true, 3, 4), kPopSpin)
      << "3 pinned workers on 4 CPUs leave one for submitters";
  EXPECT_EQ(pop_spin_budget(true, 8, 4), 0u) << "two workers per CPU";
  EXPECT_EQ(pop_spin_budget(true, 4, 4), 0u) << "no CPU left for submitters";
  EXPECT_EQ(pop_spin_budget(false, 3, 4), 0u)
      << "an unpinned worker, or one whose pin failed, may share its CPU";
  EXPECT_EQ(pop_spin_budget(true, 1, 1), 0u);
  EXPECT_EQ(pop_spin_budget(true, 1, 2), kPopSpin);
}

// ------------------------------------------------- class-aware admission

TEST(AdmissionPolicyTest, ShedThresholdFormulaAndClamps) {
  // Protected: the full capacity, whatever the watermark says.
  EXPECT_EQ(shed_threshold(AdmissionPolicy{0, 0.5}, 128), 128u);
  // Priority p sheds at capacity * watermark^p.
  EXPECT_EQ(shed_threshold(AdmissionPolicy{1, 0.5}, 128), 64u);
  EXPECT_EQ(shed_threshold(AdmissionPolicy{2, 0.5}, 128), 32u);
  // Watermark exactly 1.0: sheddable in name, FIFO in behaviour.
  EXPECT_EQ(shed_threshold(AdmissionPolicy{1, 1.0}, 128), 128u);
  // Non-representable watermark: 100 * 0.29 is 28.999... in binary; the
  // threshold must still be the intended floor(29), not 28.
  EXPECT_EQ(shed_threshold(AdmissionPolicy{1, 0.29}, 100), 29u);
  // Clamped to at least one slot so an aggressive policy cannot starve a
  // class at idle...
  EXPECT_EQ(shed_threshold(AdmissionPolicy{8, 0.1}, 128), 1u);
  // ...and to at most the capacity on out-of-range watermarks.
  EXPECT_EQ(shed_threshold(AdmissionPolicy{1, 2.0}, 128), 128u);
}

// ------------------------------------------------------ service core kernel
// ServiceCore (service_core.h) is the one policy both clocks run. These
// pin its contract with no threads and no clock: every instant is passed
// in, so the batch waits below are exact.

KvServiceConfig core_config(const char* engine, std::uint32_t batch_k) {
  KvServiceConfig cfg;
  cfg.engine = engine;
  cfg.num_shards = 1;
  cfg.queue_capacity = 16;
  cfg.batch_k = batch_k;
  return cfg;
}

// Admits `ops` to shard 0 in order; request i has key i, enqueued at 10*i.
void admit_ops(ServiceCore& core, const std::vector<OpType>& ops) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(core.admit(Request{ops[i], 0, i, static_cast<Nanos>(10 * i)}, 0),
              TraceDecision::kAdmit);
  }
}

// Pops shard 0's head at t=100 and, if the batch locks, extends at t=200.
Batch form_batch(ServiceCore& core) {
  Batch batch = core.batch();
  Request head;
  EXPECT_TRUE(core.queue(0).try_pop(head));
  batch.start(head, 100);
  batch.extend(core.queue(0), [] { return Nanos{200}; });
  return batch;
}

constexpr OpType kG = OpType::kGet;
constexpr OpType kP = OpType::kPut;

TEST(ServiceCore, LockFreeProfileServesPutsInTheLockThenDeferredGets) {
  ServiceCore core(core_config("mvcc", 8), ServiceCore::Slots::kPerWorker);
  ASSERT_TRUE(core.cost().get_lock_free);
  admit_ops(core, {kP, kG, kP, kG, kP});  // head P0, waiting [G P G P]
  const Batch batch = form_batch(core);
  ASSERT_TRUE(batch.locked());
  ASSERT_EQ(batch.size(), 5u);
  ASSERT_EQ(batch.cs_count(), 3u);
  // The head first, the puts in the CS, then the gets deferred past the
  // release — each route in pop order.
  const std::uint64_t serve_order[] = {0, 2, 4, 1, 3};
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].req.key, serve_order[i]) << i;
    EXPECT_EQ(batch.segment(i),
              i < 3 ? Segment::kCritical : Segment::kLockFree)
        << i;
  }
  // Waits freeze at pop time, whatever the serve order.
  EXPECT_EQ(batch[0].wait, 100u);
  EXPECT_EQ(batch[1].wait, 200u - 20u);
  EXPECT_EQ(batch[3].wait, 200u - 10u);
  EXPECT_EQ(core.queue(0).size(), 0u);
}

TEST(ServiceCore, LockedProfileServesEveryMemberInTheLockInPopOrder) {
  ServiceCore core(core_config("hash", 8), ServiceCore::Slots::kPerWorker);
  ASSERT_FALSE(core.cost().get_lock_free);
  admit_ops(core, {kG, kP, kG, kP, kG});
  const Batch batch = form_batch(core);
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.cs_count(), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].req.key, i);
    EXPECT_EQ(batch.segment(i), Segment::kCritical);
  }
}

TEST(ServiceCore, LockFreeGetHeadTakesNoLockAndServesAlone) {
  ServiceCore core(core_config("mvcc", 8), ServiceCore::Slots::kPerWorker);
  admit_ops(core, {kG, kP, kG});
  const Batch batch = form_batch(core);
  EXPECT_FALSE(batch.locked());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.cs_count(), 0u);
  EXPECT_EQ(batch[0].req.key, 0u);
  EXPECT_EQ(batch.segment(0), Segment::kLockFree);
  EXPECT_EQ(core.queue(0).size(), 2u) << "a lockless batch never extends";
}

TEST(ServiceCore, ExtensionStopsAtBatchKAndAtAnEmptyQueue) {
  ServiceCore core(core_config("hash", 3), ServiceCore::Slots::kPerWorker);
  admit_ops(core, {kP, kP, kP, kP, kP});
  const Batch first = form_batch(core);
  EXPECT_EQ(first.size(), 3u) << "batch_k caps the extension";
  EXPECT_EQ(core.queue(0).size(), 2u);
  const Batch second = form_batch(core);
  EXPECT_EQ(second.size(), 2u) << "the drain never waits for arrivals";
  EXPECT_EQ(second[0].req.key, 3u);
  EXPECT_EQ(core.queue(0).size(), 0u);

  ServiceCore solo(core_config("hash", 1), ServiceCore::Slots::kPerWorker);
  admit_ops(solo, {kP, kP});
  EXPECT_EQ(form_batch(solo).size(), 1u) << "batch_k 1 is the unbatched path";
}

TEST(ServiceCore, ShedCountsAsRejectedAndShedFullAsRejectedOnly) {
  KvServiceConfig cfg = core_config("hash", 1);
  cfg.queue_capacity = 4;
  cfg.classes.push_back(RequestClass{"core-tight", 0, {}});
  cfg.classes.push_back(RequestClass{"core-loose", 0, AdmissionPolicy{1, 0.5}});
  ServiceCore core(cfg, ServiceCore::Slots::kPerWorker);
  const auto admit = [&core](std::uint32_t c) {
    return core.admit(Request{kP, c, 0, 0}, 0);
  };
  EXPECT_EQ(admit(1), TraceDecision::kAdmit);
  EXPECT_EQ(admit(1), TraceDecision::kAdmit);
  EXPECT_EQ(admit(1), TraceDecision::kShed) << "depth 2 = 4 * 0.5";
  EXPECT_EQ(admit(0), TraceDecision::kAdmit);
  EXPECT_EQ(admit(0), TraceDecision::kAdmit);
  EXPECT_EQ(admit(0), TraceDecision::kReject) << "the queue is full";
  EXPECT_EQ(admit(1), TraceDecision::kReject) << "full beats the watermark";

  const ServiceReport report = core.report();
  EXPECT_EQ(report.classes[0].accepted, 2u);
  EXPECT_EQ(report.classes[0].rejected, 1u);
  EXPECT_EQ(report.classes[0].shed, 0u);
  EXPECT_EQ(report.classes[1].accepted, 2u);
  EXPECT_EQ(report.classes[1].rejected, 2u);
  EXPECT_EQ(report.classes[1].shed, 1u);
}

TEST(ServiceCore, DeferredGetIsPricedAtGetCsNopsAtNonCsSpeed) {
  ServiceCore core(core_config("mvcc", 8), ServiceCore::Slots::kPerWorker);
  const db::CostProfile& cost = core.cost();
  const Price deferred = core.price(kG, Segment::kLockFree);
  EXPECT_EQ(deferred.nops, cost.get.cs_nops);
  EXPECT_FALSE(deferred.cs_speed);
  const Price in_cs = core.price(kP, Segment::kCritical);
  EXPECT_EQ(in_cs.nops, cost.put.cs_nops);
  EXPECT_TRUE(in_cs.cs_speed);
  const Price post = core.price(kP, Segment::kPost);
  EXPECT_EQ(post.nops, cost.put.post_nops);
  EXPECT_FALSE(post.cs_speed);
}

TEST(ServiceCore, AccountingSlotsFollowTheClock) {
  KvServiceConfig cfg = core_config("hash", 1);
  cfg.num_shards = 2;
  cfg.workers_per_shard = 2;
  cfg.big_workers = 1;
  const ServiceCore real(cfg, ServiceCore::Slots::kPerWorker);
  const ServiceCore twin(cfg, ServiceCore::Slots::kPerCoreType);
  ASSERT_EQ(real.workers().size(), 4u);
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(real.workers()[w].shard, w % 2);
    EXPECT_EQ(real.workers()[w].type,
              w < 1 ? CoreType::kBig : CoreType::kLittle);
    EXPECT_EQ(real.workers()[w].slot, w) << "one writer per slot";
    EXPECT_EQ(twin.workers()[w].slot, w < 1 ? 0u : 1u) << "one per core type";
  }
}

TEST(ServiceAdmission, LooseClassShedsAtWatermarkTightKeepsTheQueue) {
  // Single shard, capacity 16, loose class shedding at half depth: a put
  // storm stops being admitted at depth 8 (all bounces counted as sheds —
  // the queue never actually filled), then gets still take the remaining 8
  // slots, and the drain invariant survives the whole episode.
  KvServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 16;
  cfg.classes.push_back(RequestClass{"shed-tight", 1 * kNanosPerMilli, {}});
  cfg.classes.push_back(
      RequestClass{"shed-loose", 4 * kNanosPerMilli, AdmissionPolicy{1, 0.5}});
  KvService service(cfg);  // not started: queues can only fill

  for (std::uint64_t key = 0; key < 20; ++key) {
    service.try_submit(OpType::kPut, key, 1);
  }
  ServiceReport mid = service.report();
  EXPECT_EQ(mid.classes[1].accepted, 8u) << "watermark = capacity/2";
  EXPECT_EQ(mid.classes[1].rejected, 12u);
  EXPECT_EQ(mid.classes[1].shed, 12u)
      << "every loose bounce was a shed: the queue never filled";

  std::uint64_t tight_accepted = 0;
  for (std::uint64_t key = 20; key < 40; ++key) {
    tight_accepted += service.try_submit(OpType::kGet, key, 0) ? 1 : 0;
  }
  EXPECT_EQ(tight_accepted, 8u) << "the protected class takes the rest";
  ServiceReport after = service.report();
  EXPECT_EQ(after.classes[0].shed, 0u) << "protected classes never shed";
  EXPECT_EQ(after.classes[0].rejected, 12u)
      << "tight bounces are full-queue rejections";

  service.start();
  service.stop();
  ServiceReport final_report = service.report();
  EXPECT_EQ(final_report.classes[0].completed, tight_accepted);
  EXPECT_EQ(final_report.classes[1].completed, 8u);
  EXPECT_EQ(service.queue_depth(0), 0u);
}

TEST(ServiceAdmission, AllClassesSheddableStillDrainsAndCounts) {
  // Every class sheddable: nothing is ever admitted past the watermark, so
  // max depth stays at the threshold, every bounce is a shed, and the
  // accepted prefix still drains completely.
  KvServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 8;
  cfg.classes.push_back(
      RequestClass{"shed-all-a", 1 * kNanosPerMilli, AdmissionPolicy{1, 0.5}});
  cfg.classes.push_back(
      RequestClass{"shed-all-b", 4 * kNanosPerMilli, AdmissionPolicy{1, 0.5}});
  KvService service(cfg);

  std::uint64_t accepted = 0;
  for (std::uint64_t key = 0; key < 32; ++key) {
    accepted +=
        service.try_submit(OpType::kPut, key, key % 2 ? 1 : 0) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 4u) << "both classes cap at the shared watermark";
  ServiceReport report = service.report();
  EXPECT_EQ(report.total_shed(), 32u - accepted);
  EXPECT_EQ(report.total_rejected(), report.total_shed())
      << "the queue never filled, so every rejection was a shed";

  service.stop();  // inline drain
  report = service.report();
  EXPECT_EQ(report.total_completed(), accepted);
}

TEST(ServiceAdmission, ShedDisabledParityWithFifoRejectionCounts) {
  // With every class protected (the default), admission must match the
  // class-blind bounded queue exactly: same accepted/rejected counts as
  // the pre-shedding service, and zero sheds anywhere.
  KvServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 16;
  cfg.classes.push_back(RequestClass{"fifo-parity", 2 * kNanosPerMilli, {}});
  KvService service(cfg);

  std::uint64_t accepted = 0, rejected = 0;
  for (std::uint64_t key = 0; key < 40; ++key) {
    (service.try_submit(OpType::kPut, key, 0) ? accepted : rejected) += 1;
  }
  EXPECT_EQ(accepted, cfg.queue_capacity);
  EXPECT_EQ(rejected, 40 - cfg.queue_capacity);
  ServiceReport report = service.report();
  EXPECT_EQ(report.classes[0].shed, 0u);
  EXPECT_EQ(report.classes[0].rejected, rejected);
  service.stop();
}

TEST(ServiceBackpressure, FullQueueRejectsThenStartDrainsEverything) {
  KvServiceConfig cfg;
  cfg.num_shards = 1;  // single queue so the capacity bound is exact
  cfg.queue_capacity = 16;
  cfg.workers_per_shard = 2;
  cfg.classes.push_back(RequestClass{"bp-test", 2 * kNanosPerMilli});
  KvService service(cfg);  // workers not started yet

  std::uint64_t accepted = 0, rejected = 0;
  for (std::uint64_t key = 0; key < 40; ++key) {
    (service.try_submit(OpType::kPut, key, 0) ? accepted : rejected) += 1;
  }
  EXPECT_EQ(accepted, cfg.queue_capacity);
  EXPECT_EQ(rejected, 40 - cfg.queue_capacity);
  EXPECT_EQ(service.queue_depth(0), cfg.queue_capacity);

  service.start();
  service.stop();  // close + drain + join

  ServiceReport report = service.report();
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_EQ(report.classes[0].accepted, accepted);
  EXPECT_EQ(report.classes[0].rejected, rejected);
  EXPECT_EQ(report.classes[0].completed, accepted)
      << "stop() must drain every accepted request";
  EXPECT_EQ(service.queue_depth(0), 0u);
  EXPECT_GT(service.store_size(), 0u) << "puts must reach the engine";
}

TEST(ServiceBackpressure, StopWithoutStartStillDrains) {
  KvServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 32;
  cfg.classes.push_back(RequestClass{"drain-test", 2 * kNanosPerMilli});
  KvService service(cfg);

  std::uint64_t accepted = 0;
  for (std::uint64_t key = 0; key < 20; ++key) {
    accepted += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
  }
  ASSERT_GT(accepted, 0u);
  service.stop();  // never started: the drain runs inline

  ServiceReport report = service.report();
  EXPECT_EQ(report.classes[0].completed, accepted)
      << "completed == accepted must hold even without start()";
  EXPECT_EQ(service.queue_depth(0) + service.queue_depth(1), 0u);
}

TEST(ServiceBackpressure, CapacityOneServiceKeepsDrainInvariant) {
  // The tightest admission buffer: every shard holds at most one waiting
  // request, so a submit storm rejects heavily — but whatever was accepted
  // must still be fully served on stop().
  KvServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 1;
  cfg.classes.push_back(RequestClass{"cap1-test", 2 * kNanosPerMilli});
  KvService service(cfg);  // not started: queues can only fill

  std::uint64_t accepted = 0, rejected = 0;
  for (std::uint64_t key = 0; key < 64; ++key) {
    (service.try_submit(OpType::kPut, key, 0) ? accepted : rejected) += 1;
  }
  EXPECT_LE(accepted, 2u) << "one slot per shard";
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(rejected, 64 - accepted);

  service.start();
  service.stop();
  ServiceReport report = service.report();
  EXPECT_EQ(report.classes[0].accepted, accepted);
  EXPECT_EQ(report.classes[0].rejected, rejected);
  EXPECT_EQ(report.classes[0].completed, accepted);
}

TEST(ServiceEngines, EveryRegisteredEngineServesAndDrains) {
  // The engine seam on the real path (DESIGN.md §7): the same service,
  // traffic and accounting on each registered engine — only
  // KvServiceConfig::engine differs. The prefill must land whole however
  // it is split over shards, puts must land in the engine's store
  // (distinct keys => store growth) and the drain invariant must hold.
  for (const std::string& engine : db::kv_engine_names()) {
    for (const std::uint32_t shards : {1u, 2u, 3u}) {
      const std::string at = engine + " x" + std::to_string(shards);
      KvServiceConfig cfg;
      cfg.num_shards = shards;
      cfg.workers_per_shard = 2;
      cfg.queue_capacity = 128;
      cfg.engine = engine;
      cfg.prefill_keys = 32;
      cfg.classes.push_back(RequestClass{"eng-" + engine, 2 * kNanosPerMilli});
      KvService service(cfg);
      EXPECT_EQ(service.store_size(), 32u) << at;
      service.start();
      std::uint64_t accepted = 0;
      for (std::uint64_t key = 0; key < 200; ++key) {
        accepted += service.try_submit(
            key % 2 == 0 ? OpType::kPut : OpType::kGet, 1000 + key, 0);
      }
      service.stop();
      const ServiceReport report = service.report();
      EXPECT_EQ(report.classes[0].accepted, accepted) << at;
      EXPECT_EQ(report.classes[0].completed, accepted) << at;
      EXPECT_GT(service.store_size(), 32u)
          << at << ": puts must reach the engine";
    }
  }
}

TEST(ServiceEngines, ShardKeySetsBulkLoadIntoMinimalHeightTrees) {
  // The prefill's per-shard split (KvService's constructor): 2^15 keys over
  // 3 shards by shard_for_key, each shard's ascending run bulk-loaded. Every
  // shard's tree must come out at the minimal height ceil(log2(n+1)) for
  // its own key count, not just the one-shard case.
  constexpr std::uint64_t kKeys = 1u << 15;
  constexpr std::uint32_t kShards = 3;
  std::vector<std::vector<std::uint64_t>> shard_keys(kShards);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    shard_keys[shard_for_key(key, kShards)].push_back(key);
  }
  for (const std::vector<std::uint64_t>& keys : shard_keys) {
    db::MvKv kv;
    kv.bulk_load(keys, "prefill");
    EXPECT_EQ(kv.size(), keys.size());
    EXPECT_EQ(kv.height(),
              static_cast<std::size_t>(std::bit_width(keys.size())))
        << keys.size() << " keys";
  }
}

TEST(ServiceEngines, LockRouteCountersSplitByEngineCapability) {
  // The lock-free read path's observable contract (DESIGN.md §8): on an
  // engine whose profile claims get_lock_free (mvcc), a get NEVER acquires
  // the shard lock — zero get-route acquisitions, zero in-CS gets, every
  // completed get on the lock-free route. On a locked engine (hash) the
  // split is exactly the other way. Puts acquire on both.
  for (const std::string& engine : {std::string("mvcc"), std::string("hash")}) {
    KvServiceConfig cfg;
    cfg.num_shards = 2;
    cfg.workers_per_shard = 2;
    cfg.queue_capacity = 256;
    cfg.engine = engine;
    cfg.prefill_keys = 64;
    cfg.classes.push_back(RequestClass{"route-" + engine, 2 * kNanosPerMilli});
    KvService service(cfg);
    service.start();
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    for (std::uint64_t key = 0; key < 400; ++key) {
      if (key % 4 == 0) {
        puts += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
      } else {
        gets += service.try_submit(OpType::kGet, key % 64, 0) ? 1 : 0;
      }
    }
    service.stop();
    const LockRouteStats routes = service.lock_route_stats();
    EXPECT_EQ(routes.cs_gets + routes.lockfree_gets, gets)
        << engine << ": every completed get is on exactly one route";
    if (engine == "mvcc") {
      EXPECT_EQ(routes.get_route_acquires, 0u)
          << "mvcc gets must never take the shard lock";
      EXPECT_EQ(routes.cs_gets, 0u);
      EXPECT_EQ(routes.lockfree_gets, gets);
    } else {
      EXPECT_EQ(routes.lockfree_gets, 0u)
          << "hash has no lock-free read path";
      EXPECT_EQ(routes.cs_gets, gets);
    }
    EXPECT_GT(routes.put_route_acquires, 0u)
        << engine << ": puts always publish under the shard lock";
    EXPECT_LE(routes.put_route_acquires, puts)
        << engine << ": batching can only merge put acquisitions, not mint";
  }
}

TEST(ServiceAccounting, ReportRacingTheWorkersIsMonotoneAndConsistent) {
  // report() and lock_route_stats() are folds over the workers' own
  // accounting slots, taken while the workers record (DESIGN.md §4; this
  // suite runs under TSan in CI). Every snapshot must keep the report-level
  // contracts, consecutive snapshots must never step backwards, and once
  // stop() has drained the service the folds are exact.
  KvServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 2;
  cfg.big_workers = 2;  // slots 0-1 big, 2-3 little: both halves fold
  cfg.queue_capacity = 32;
  cfg.batch_k = 4;
  cfg.prefill_keys = 256;
  cfg.classes.push_back(RequestClass{"race-tight", 2 * kNanosPerMilli, {}});
  cfg.classes.push_back(
      RequestClass{"race-loose", 8 * kNanosPerMilli, AdmissionPolicy{1, 0.5}});
  KvService service(cfg);
  service.start();

  std::atomic<bool> stopped{false};
  std::uint64_t snapshots = 0;
  std::vector<std::string> violations;
  std::thread reader([&] {
    auto expect = [&violations](bool ok, const std::string& what) {
      if (!ok && violations.size() < 8) violations.push_back(what);
    };
    ServiceReport prev = service.report();
    LockRouteStats prev_routes = service.lock_route_stats();
    do {
      const ServiceReport report = service.report();
      const LockRouteStats routes = service.lock_route_stats();
      for (std::size_t c = 0; c < report.classes.size(); ++c) {
        const ClassReport& a = prev.classes[c];
        const ClassReport& b = report.classes[c];
        expect(b.shed <= b.rejected, b.name + ": shed <= rejected");
        expect(b.slo_met <= b.completed, b.name + ": slo_met <= completed");
        expect(b.accepted >= a.accepted && b.rejected >= a.rejected &&
                   b.shed >= a.shed && b.completed >= a.completed &&
                   b.slo_met >= a.slo_met,
               b.name + ": counters are monotone");
        expect(b.total.big().count() >= a.total.big().count() &&
                   b.total.little().count() >= a.total.little().count() &&
                   b.queue_wait.count() >= a.queue_wait.count(),
               b.name + ": histogram counts are monotone");
      }
      expect(routes.get_route_acquires >= prev_routes.get_route_acquires &&
                 routes.put_route_acquires >= prev_routes.put_route_acquires &&
                 routes.cs_gets >= prev_routes.cs_gets &&
                 routes.lockfree_gets >= prev_routes.lockfree_gets,
             "route counters are monotone");
      prev = report;
      prev_routes = routes;
      snapshots += 1;
    } while (!stopped.load(std::memory_order_acquire));
  });

  std::vector<std::uint64_t> accepted(2, 0);
  std::uint64_t accepted_gets = 0;
  Rng rng(23);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const std::uint32_t c = static_cast<std::uint32_t>(i % 2);
    const OpType op = rng.below(4) == 0 ? OpType::kPut : OpType::kGet;
    if (service.try_submit(op, rng.below(256), c)) {
      accepted[c] += 1;
      if (op == OpType::kGet) accepted_gets += 1;
    } else {
      std::this_thread::yield();  // let the workers catch up a little
    }
  }
  service.stop();
  stopped.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GE(snapshots, 1u);
  EXPECT_TRUE(violations.empty()) << violations.front();
  const ServiceReport report = service.report();
  for (std::uint32_t c = 0; c < 2; ++c) {
    const ClassReport& cls = report.classes[c];
    EXPECT_EQ(cls.completed, accepted[c]) << cls.name;
    EXPECT_EQ(cls.total.big().count() + cls.total.little().count(),
              cls.total.overall().count())
        << cls.name;
    EXPECT_EQ(cls.total.overall().count(), cls.completed) << cls.name;
    EXPECT_EQ(cls.queue_wait.count(), cls.completed) << cls.name;
  }
  const LockRouteStats routes = service.lock_route_stats();
  EXPECT_EQ(routes.cs_gets + routes.lockfree_gets, accepted_gets);
}

TEST(ServiceLifecycle, StopBeforeStartThenLateTrafficIsRejected) {
  // stop() before start(): queued work drains inline, the service closes,
  // and everything submitted afterwards is a counted rejection — the
  // completed == accepted invariant must survive the whole sequence,
  // including a (no-op) start() after stop().
  KvServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 8;
  cfg.classes.push_back(RequestClass{"late-test", 0});
  KvService service(cfg);

  std::uint64_t accepted = 0;
  for (std::uint64_t key = 0; key < 6; ++key) {
    accepted += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
  }
  ASSERT_EQ(accepted, 6u);
  service.stop();

  for (std::uint64_t key = 6; key < 12; ++key) {
    EXPECT_FALSE(service.try_submit(OpType::kGet, key, 0))
        << "closed service must reject";
  }
  service.start();  // after stop(): must be a no-op, not a worker respawn
  service.stop();   // idempotent

  ServiceReport report = service.report();
  EXPECT_EQ(report.classes[0].accepted, accepted);
  EXPECT_EQ(report.classes[0].completed, accepted);
  EXPECT_EQ(report.classes[0].rejected, 6u);
  EXPECT_EQ(service.queue_depth(0) + service.queue_depth(1), 0u);
}

TEST(ServiceLifecycle, StopWithQueuedWorkDrainsEveryShard) {
  // Workers racing stop(): fill queues across every shard while workers
  // run, then stop immediately — close() must let the workers drain each
  // accepted request before joining.
  KvServiceConfig cfg;
  cfg.num_shards = 4;
  cfg.workers_per_shard = 1;
  cfg.queue_capacity = 256;
  cfg.classes.push_back(RequestClass{"drain-race-test", 2 * kNanosPerMilli});
  KvService service(cfg);
  service.start();

  std::uint64_t accepted = 0;
  for (std::uint64_t key = 0; key < 512; ++key) {
    accepted += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
  }
  service.stop();

  ServiceReport report = service.report();
  EXPECT_EQ(report.classes[0].completed, accepted);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    EXPECT_EQ(service.queue_depth(s), 0u) << "shard " << s;
  }
  EXPECT_GT(service.store_size(), 0u);
}

TEST(ServiceLifecycle, ConcurrentStartAndStopCompose) {
  // The transition race (this suite runs under TSan in CI): one thread
  // starting the service while another stops it. The lifecycle lock
  // serializes the two orders — stop-first leaves a closed, never-started
  // service that drained inline; start-first spawns workers that stop()
  // then joins — and either way every accepted request completes. The old
  // plain-bool running_/stopped_ flags made this a data race.
  for (int round = 0; round < 8; ++round) {
    KvServiceConfig cfg;
    cfg.num_shards = 2;
    cfg.queue_capacity = 32;
    cfg.classes.push_back(RequestClass{"lifecycle-race-test", 0});
    KvService service(cfg);

    std::uint64_t accepted = 0;
    for (std::uint64_t key = 0; key < 16; ++key) {
      accepted += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
    }
    std::thread starter([&service] { service.start(); });
    std::thread stopper([&service] { service.stop(); });
    starter.join();
    stopper.join();
    service.stop();  // idempotent; the first stop already drained

    ServiceReport report = service.report();
    EXPECT_EQ(report.classes[0].accepted, accepted);
    EXPECT_EQ(report.classes[0].completed, accepted);
    EXPECT_EQ(service.queue_depth(0) + service.queue_depth(1), 0u);
  }
}

// ---------------------------------------------------- telemetry lifecycle

namespace {

KvServiceConfig telemetry_test_config() {
  KvServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 1;
  cfg.queue_capacity = 64;
  cfg.prefill_keys = 64;
  cfg.classes.push_back(RequestClass{"telemetry-test", 2 * kNanosPerMilli});
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_period_ns = 1 * kNanosPerMilli;
  return cfg;
}

// Last point of a named series; 0 when the series is absent or empty.
std::uint64_t series_last(const KvTelemetry* telem, const std::string& name) {
  const TimeSeries* s = telem->log().find(name);
  return (s == nullptr || s->empty()) ? 0 : s->points().back().v;
}

}  // namespace

TEST(TelemetryLifecycle, DisabledConfigBuildsNoPipeline) {
  KvServiceConfig cfg;
  cfg.classes.push_back(RequestClass{"telemetry-off-test", 0});
  KvService service(cfg);
  EXPECT_EQ(service.telemetry(), nullptr);
  service.start();
  service.stop();
  EXPECT_EQ(service.telemetry(), nullptr);
}

TEST(TelemetryLifecycle, FinalTickSeesZeroDepthAfterDrain) {
  // The sampler's final tick fires after stop() joins the workers, so the
  // last sample of every series must observe the drained service: queue
  // depths at zero and the cumulative counters at their report values —
  // never a mid-drain snapshot.
  KvService service(telemetry_test_config());
  service.start();
  std::uint64_t accepted = 0;
  Rng rng(11);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const OpType op = (i % 4 == 0) ? OpType::kPut : OpType::kGet;
    while (!service.try_submit(op, rng.below(64), 0)) {
      std::this_thread::yield();
    }
    accepted += 1;
  }
  service.stop();

  const KvTelemetry* telem = service.telemetry();
  ASSERT_NE(telem, nullptr);
  EXPECT_GE(telem->ticks(), 1u);
  const ServiceReport report = service.report();
  EXPECT_EQ(report.classes[0].completed, accepted);
  EXPECT_EQ(series_last(telem, "class.telemetry-test.accepted"), accepted);
  EXPECT_EQ(series_last(telem, "class.telemetry-test.completed"), accepted);
  EXPECT_EQ(series_last(telem, "shard.0.depth"), 0u);
  EXPECT_EQ(series_last(telem, "shard.1.depth"), 0u);
}

TEST(TelemetryLifecycle, StopWithoutStartStillSamplesFinalTick) {
  // stop() with no start(): queued work drains inline, and the sampler —
  // never started — must still emit its one final tick, observing the
  // post-drain state. A telemetry-on service never ends a run with an
  // empty log.
  KvService service(telemetry_test_config());
  std::uint64_t accepted = 0;
  for (std::uint64_t key = 0; key < 8; ++key) {
    accepted += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
  }
  ASSERT_GT(accepted, 0u);
  service.stop();

  const KvTelemetry* telem = service.telemetry();
  ASSERT_NE(telem, nullptr);
  EXPECT_GE(telem->ticks(), 1u);
  EXPECT_FALSE(telem->log().empty());
  EXPECT_EQ(series_last(telem, "class.telemetry-test.completed"), accepted);
  EXPECT_EQ(series_last(telem, "shard.0.depth") +
                series_last(telem, "shard.1.depth"),
            0u);
}

TEST(TelemetryLifecycle, ConcurrentStartAndStopCompose) {
  // The PR 7 transition race, now with the sampler in the mix (this suite
  // runs under TSan in CI): whichever order the lifecycle lock serializes,
  // the sampler's final tick fires exactly once and lands on drained state.
  for (int round = 0; round < 8; ++round) {
    KvService service(telemetry_test_config());
    std::uint64_t accepted = 0;
    for (std::uint64_t key = 0; key < 16; ++key) {
      accepted += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
    }
    std::thread starter([&service] { service.start(); });
    std::thread stopper([&service] { service.stop(); });
    starter.join();
    stopper.join();
    service.stop();  // idempotent; no second final tick

    const KvTelemetry* telem = service.telemetry();
    ASSERT_NE(telem, nullptr);
    EXPECT_GE(telem->ticks(), 1u);
    const ServiceReport report = service.report();
    EXPECT_EQ(report.classes[0].completed, accepted);
    EXPECT_EQ(series_last(telem, "class.telemetry-test.completed"), accepted);
    EXPECT_EQ(series_last(telem, "shard.0.depth") +
                  series_last(telem, "shard.1.depth"),
              0u);
  }
}

// ------------------------------------------------------------ batch drain

TEST(ServiceBatching, BatchedDrainKeepsPerRequestAccounting) {
  // batch_k = 8: workers amortize one lock acquisition over up to eight
  // queued requests, but every request must still be counted, latency-
  // recorded and epoch-tagged individually — batching amortizes the lock,
  // never the accounting (DESIGN.md §6).
  KvServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 2;
  cfg.big_workers = 2;
  cfg.queue_capacity = 128;
  cfg.batch_k = 8;
  cfg.prefill_keys = 256;
  cfg.classes.push_back(RequestClass{"batch-tight", 1 * kNanosPerMilli, {}});
  cfg.classes.push_back(RequestClass{"batch-loose", 8 * kNanosPerMilli, {}});
  KvService service(cfg);

  std::vector<std::uint64_t> before;
  for (std::uint32_t c = 0; c < 2; ++c) {
    before.push_back(epoch_completions(service.epoch_id(c)));
  }

  // Fill the queues before start() so the first drains actually form
  // multi-request batches instead of racing the submitter.
  std::vector<std::uint64_t> accepted(2, 0);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint32_t c = static_cast<std::uint32_t>(i % 2);
    if (service.try_submit(i % 3 == 0 ? OpType::kPut : OpType::kGet,
                           i % 256, c)) {
      accepted[c] += 1;
    }
  }
  service.start();
  service.stop();

  ServiceReport report = service.report();
  for (std::uint32_t c = 0; c < 2; ++c) {
    const ClassReport& cls = report.classes[c];
    EXPECT_EQ(cls.completed, accepted[c]);
    EXPECT_EQ(cls.shed, 0u);
    // One epoch completion per served request, batched or not.
    EXPECT_EQ(epoch_completions(service.epoch_id(c)) - before[c],
              cls.completed)
        << "class " << cls.name;
    // Latency recording is complete and per-request.
    EXPECT_EQ(cls.total.overall().count(), cls.completed);
    EXPECT_EQ(cls.queue_wait.count(), cls.completed);
  }
  EXPECT_GT(service.store_size(), 0u);
}

TEST(ServiceBatching, BatchKClampsAndDegenerateValuesServeEverything) {
  // batch_k = 0 clamps to 1 (unbatched) and a huge batch_k clamps to
  // kMaxBatch; both must keep the drain invariant.
  for (const std::uint32_t k : {0u, 1u, 1000u}) {
    KvServiceConfig cfg;
    cfg.num_shards = 1;
    cfg.queue_capacity = 64;
    cfg.batch_k = k;
    cfg.classes.push_back(RequestClass{"batch-clamp", 0, {}});
    KvService service(cfg);
    EXPECT_GE(service.config().batch_k, 1u);
    EXPECT_LE(service.config().batch_k, kMaxBatch);
    std::uint64_t accepted = 0;
    for (std::uint64_t key = 0; key < 50; ++key) {
      accepted += service.try_submit(OpType::kPut, key, 0) ? 1 : 0;
    }
    service.start();
    service.stop();
    EXPECT_EQ(service.report().classes[0].completed, accepted)
        << "batch_k " << k;
  }
}

// --------------------------------------------------- per-epoch SLO accounting

TEST(SloAccounting, ClassesCarryDistinctEpochsAndSlos) {
  KvServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 2;
  cfg.big_workers = 2;
  cfg.prefill_keys = 256;
  cfg.classes.push_back(RequestClass{"slo-test-tight", 1 * kNanosPerMilli});
  cfg.classes.push_back(RequestClass{"slo-test-loose", 50 * kNanosPerMilli});
  cfg.classes.push_back(RequestClass{"slo-test-none", 0});
  KvService service(cfg);

  // Registration side: distinct dense ids, registry carries each class SLO.
  std::set<int> ids;
  for (std::uint32_t c = 0; c < 3; ++c) {
    ASSERT_GE(service.epoch_id(c), 0);
    ids.insert(service.epoch_id(c));
    EXPECT_EQ(EpochRegistry::instance().default_slo(service.epoch_id(c)),
              cfg.classes[c].slo_ns);
  }
  EXPECT_EQ(ids.size(), 3u);

  std::vector<std::uint64_t> before;
  for (std::uint32_t c = 0; c < 3; ++c) {
    before.push_back(epoch_completions(service.epoch_id(c)));
  }

  service.start();
  std::vector<std::uint64_t> accepted(3, 0);
  for (std::uint64_t i = 0; i < 600; ++i) {
    const std::uint32_t c = static_cast<std::uint32_t>(i % 3);
    if (service.try_submit(i % 2 == 0 ? OpType::kGet : OpType::kPut,
                           i % 256, c)) {
      accepted[c] += 1;
    }
  }
  service.stop();

  ServiceReport report = service.report();
  ASSERT_EQ(report.classes.size(), 3u);
  for (std::uint32_t c = 0; c < 3; ++c) {
    const ClassReport& cls = report.classes[c];
    EXPECT_EQ(cls.completed, accepted[c]);
    EXPECT_LE(cls.slo_met, cls.completed);
    EXPECT_GE(cls.attainment(), 0.0);
    EXPECT_LE(cls.attainment(), 1.0);
    // Every served request ended its class epoch exactly once: the registry
    // delta (folded from the exited workers) matches the service count.
    EXPECT_EQ(epoch_completions(service.epoch_id(c)) - before[c],
              cls.completed)
        << "class " << cls.name;
    // Latency recording is complete (every completion recorded once).
    EXPECT_EQ(cls.total.overall().count(), cls.completed);
    EXPECT_EQ(cls.queue_wait.count(), cls.completed);
  }
  // The no-SLO class counts every completion as met (nothing to violate).
  EXPECT_EQ(report.classes[2].slo_met, report.classes[2].completed);
  // The 50 ms class is unmissable at this scale on any sane host; requiring
  // a single met request keeps this robust on loaded CI runners.
  EXPECT_GT(report.classes[1].slo_met, 0u);
}

// ------------------------------------------------------- open-loop generator

TEST(OpenLoopGenerator, ConservationAcrossLayers) {
  KvScenario sc = make_kv_scenario("kv_uniform_steady");
  sc.service.prefill_keys = 1024;  // keep the test-start cost small
  const Nanos horizon = 40 * kNanosPerMilli;

  KvService service(sc.service);
  service.start();
  OpenLoopResult load = run_open_loop(service, sc.load, horizon);
  service.stop();

  EXPECT_GT(load.offered, 0u);
  EXPECT_EQ(load.offered, load.accepted + load.rejected);
  ServiceReport report = service.report();
  EXPECT_EQ(report.total_accepted(), load.accepted);
  EXPECT_EQ(report.total_rejected(), load.rejected);
  EXPECT_EQ(report.total_completed(), load.accepted);
}

TEST(OpenLoopGenerator, TracesAreMonotoneAndBounded) {
  for (const std::string& name : kv_scenario_names()) {
    KvScenario sc = make_kv_scenario(name);
    for (const LoadSpec& spec : sc.load) {
      const auto trace = generate_trace(spec, 50 * kNanosPerMilli);
      ASSERT_GT(trace.size(), 0u) << name;
      Nanos prev = 0;
      for (const TracePoint& p : trace) {
        EXPECT_GT(p.at, prev) << name << ": arrivals must advance";
        prev = p.at;
        EXPECT_LT(p.at, 50 * kNanosPerMilli) << name;
        EXPECT_LT(p.key, spec.keys.keyspace()) << name;
      }
    }
  }
}

TEST(OpenLoopGenerator, ZipfianSkewsAndUniformDoesNot) {
  const std::uint64_t keyspace = 4096;
  const int draws = 40'000;
  auto hottest_count = [&](const workload::KeyDist& dist) {
    Rng rng(99);
    std::vector<std::uint32_t> counts(keyspace, 0);
    for (int i = 0; i < draws; ++i) counts[dist.next(rng)] += 1;
    std::uint32_t max_count = 0;
    for (std::uint32_t c : counts) max_count = std::max(max_count, c);
    return max_count;
  };
  const std::uint32_t uniform_max =
      hottest_count(workload::KeyDist::uniform(keyspace));
  const std::uint32_t zipf_max =
      hottest_count(workload::KeyDist::zipfian(keyspace, 0.99));
  // Uniform expectation is ~10 draws/key; zipfian theta=0.99 concentrates
  // several percent of all draws on the hottest key.
  EXPECT_LT(uniform_max, 60u);
  EXPECT_GT(zipf_max, uniform_max * 5);
}

TEST(TraceReplay, RealPathRecorderCapturesDecisionsAndBatches) {
  // The recorder hook on the real path: every try_submit outcome lands in
  // the trace with the decision the service actually took, and every
  // drained batch lands in the histogram. Reuses the watermark episode of
  // LooseClassShedsAtWatermarkTightKeepsTheQueue, so the expected decision
  // counts are already pinned above.
  KvServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 16;
  cfg.classes.push_back(RequestClass{"rec-tight", 1 * kNanosPerMilli, {}});
  cfg.classes.push_back(
      RequestClass{"rec-loose", 4 * kNanosPerMilli, AdmissionPolicy{1, 0.5}});
  KvService service(cfg);  // not started: queues can only fill
  TraceRecorder recorder;
  service.set_recorder(&recorder);

  for (std::uint64_t key = 0; key < 20; ++key) {
    service.try_submit(OpType::kPut, key, 1);
  }
  for (std::uint64_t key = 20; key < 40; ++key) {
    service.try_submit(OpType::kGet, key, 0);
  }
  EXPECT_EQ(recorder.recorded(), 40u);
  service.start();
  service.stop();
  service.set_recorder(nullptr);

  TraceMeta meta;
  meta.scenario = "recorder-unit";
  meta.num_shards = cfg.num_shards;
  meta.real_path = true;
  meta.class_names = {"rec-tight", "rec-loose"};
  const RecordedTrace trace =
      recorder.finish(std::move(meta), service.lock_route_stats());

  // Decision totals derived from the records equal the service's own
  // accounting (8 admits per class; loose bounces all sheds, tight bounces
  // all full-queue rejects).
  const ServiceReport report = service.report();
  ASSERT_EQ(trace.accounting.classes.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(trace.accounting.classes[i].accepted, report.classes[i].accepted);
    EXPECT_EQ(trace.accounting.classes[i].rejected, report.classes[i].rejected);
    EXPECT_EQ(trace.accounting.classes[i].shed, report.classes[i].shed);
  }
  EXPECT_EQ(trace.accounting.classes[1].shed, 12u);
  EXPECT_EQ(trace.accounting.classes[0].shed, 0u);

  // The batch histogram counts exactly the lock acquisitions.
  const LockRouteStats routes = service.lock_route_stats();
  std::uint64_t batch_total = 0, batched_requests = 0;
  for (const TraceBatchBucket& b : trace.accounting.batches) {
    batch_total += b.count;
    batched_requests += b.count * b.size;
  }
  EXPECT_EQ(batch_total, routes.get_route_acquires + routes.put_route_acquires);
  EXPECT_EQ(batched_requests, report.total_completed())
      << "hash engine: every completed request rode exactly one batch";

  // A real-path trace serializes and re-parses (arrival stamps are
  // wall-clock and exempt from the twin's monotonicity rule).
  const std::string bytes = trace_to_string(trace);
  RecordedTrace parsed;
  std::string error;
  std::istringstream in(bytes);
  ASSERT_TRUE(parse_trace(in, &parsed, &error)) << error;
  EXPECT_EQ(trace_to_string(parsed), bytes);
}

TEST(TraceReplay, RealPathReplayReproducesRecordedAccounting) {
  // The decision-parity guarantee (server/replay.h): a twin-recorded
  // overloaded trace — admits, sheds and full-queue rejects all present —
  // replayed onto a live service with queue headroom reproduces the
  // recorded accounting exactly. Enforced bounces are accounted without
  // being re-offered; recorded admits must all be re-admitted live, so
  // divergence is structurally zero here and asserted as such.
  // The default 20 ms overload horizon: long enough for the queues to climb
  // past the shed watermark and then fill outright, so the trace carries
  // all three decisions.
  const KvScenario sc = make_overloaded_kv_scenario("kv_batch_shed", 8.0);
  const RecordedTrace trace = record_sim_kv(sc);
  std::uint64_t rec_accepted = 0, rec_rejected = 0, rec_shed = 0;
  for (const TraceClassTotals& c : trace.accounting.classes) {
    rec_accepted += c.accepted;
    rec_rejected += c.rejected;
    rec_shed += c.shed;
  }
  ASSERT_GT(rec_accepted, 0u);
  ASSERT_GT(rec_shed, 0u) << "the overload profile must exercise shedding";

  KvServiceConfig cfg = sc.service;
  cfg.queue_capacity = 4096;  // headroom >> recorded accepted load
  KvService service(cfg);
  TraceRecorder rerecorder;  // re-record the replay through the real hook
  service.set_recorder(&rerecorder);
  service.start();

  ReplayOptions options;
  options.time_scale = 0.0;  // no pacing: order and accounting, not tempo
  const RealReplayResult result = replay_trace(service, trace, options);
  service.stop();
  service.set_recorder(nullptr);

  EXPECT_EQ(result.offered, trace.offered());
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_EQ(result.divergence, 0u);
  EXPECT_EQ(result.accepted, rec_accepted);
  EXPECT_EQ(result.rejected, 0u) << "headroom: no live bounces";
  EXPECT_EQ(result.submitted, rec_accepted);
  EXPECT_EQ(result.enforced_shed, rec_shed);
  EXPECT_EQ(result.enforced_reject, rec_rejected - rec_shed);
  EXPECT_EQ(rerecorder.recorded(), result.submitted)
      << "the service's recorder saw exactly the re-offered stream";

  std::string why;
  EXPECT_TRUE(accounting_counts_match(trace.accounting, result.accounting,
                                      &why))
      << why;

  // The service itself completed exactly the recorded accepted stream.
  const ServiceReport report = service.report();
  EXPECT_EQ(report.total_accepted(), rec_accepted);
  EXPECT_EQ(report.total_completed(), rec_accepted);
  EXPECT_EQ(report.total_rejected(), 0u);
}

}  // namespace
}  // namespace asl::server
