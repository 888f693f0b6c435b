// Allocation-count regression tests (DESIGN.md §9): the unit-level half of
// the zero-allocation hot path, next to kv_alloc_audit's whole-service
// gate. This binary links asl_alloc, so the global operator new/delete are
// the counting hooks; the single-threaded suites pin *thread-local* deltas
// (exact, no quiescence needed), the service suite pins the process-wide
// delta after draining. RUN_SERIAL in CMake: the process-wide counters make
// a concurrently running sibling test look like a regression.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <new>
#include <string_view>
#include <thread>

#include "asl/alloc_count.h"
#include "db/mvkv.h"
#include "platform/rng.h"
#include "server/kv_service.h"
#include "server/request_queue.h"
#include "server/service_core.h"
#include "server/telemetry.h"

namespace asl {
namespace {

using server::Batch;
using server::BoundedQueue;
using server::KvService;
using server::KvServiceConfig;
using server::OpType;
using server::Request;
using server::ValueArena;

// Keeps a deliberate allocation observable (allocation elision could
// otherwise fold the probe new/delete pair away entirely).
char* volatile g_probe_sink = nullptr;

TEST(AllocCounting, HooksAreLinkedAndObserveNewDelete) {
  ASSERT_TRUE(alloc_counting_linked());
  const std::uint64_t allocs = thread_alloc_count();
  const std::uint64_t frees = thread_free_count();
  const AllocCounts before = alloc_counts();
  g_probe_sink = new char[128];
  EXPECT_EQ(thread_alloc_count(), allocs + 1);
  delete[] g_probe_sink;
  EXPECT_EQ(thread_free_count(), frees + 1);
  const AllocCounts after = alloc_counts();
  EXPECT_GE(after.allocs, before.allocs + 1);
  EXPECT_GE(after.bytes, before.bytes + 128);
}

TEST(AllocCounting, AlignedAndNothrowFormsCount) {
  const std::uint64_t before = thread_alloc_count();
  void* aligned = ::operator new(256, std::align_val_t{64});
  void* nothrow = ::operator new(64, std::nothrow);
  EXPECT_EQ(thread_alloc_count(), before + 2);
  ::operator delete(aligned, std::align_val_t{64});
  ::operator delete(nothrow);
}

// Satellite regression: pop()/try_pop() must reset the ring slot after
// moving out of it, or the moved-from element keeps whatever it still owns
// alive until the slot is overwritten. The payload's "move" is a copy
// (copy-only type), so a stale slot is visible as an extra shared_ptr
// reference — deterministic, no allocator involved.
struct SharedToken {
  std::shared_ptr<int> token;
};

TEST(BoundedQueueAlloc, PopResetsTheRingSlot) {
  BoundedQueue<SharedToken> queue(4);
  auto token = std::make_shared<int>(7);
  ASSERT_TRUE(queue.try_push(SharedToken{token}));
  SharedToken out;
  ASSERT_TRUE(queue.pop(out));
  // Holders: `token` here and `out`. A stale ring slot would be a third.
  EXPECT_EQ(token.use_count(), 2);

  ASSERT_TRUE(queue.try_push(SharedToken{token}));
  SharedToken out2;
  ASSERT_TRUE(queue.try_pop(out2));
  EXPECT_EQ(token.use_count(), 3);  // token, out, out2 — and no slot copy
}

TEST(BoundedQueueAlloc, WarmedPushPopCycleIsHeapFree) {
  BoundedQueue<Request> queue(64);  // ring preallocated at construction
  const std::uint64_t before = thread_alloc_count();
  Request out;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          queue.try_push(Request{OpType::kPut, i, 0, Nanos{0}}));
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
    }
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

TEST(ValueArena, FormatsValuesAndRecyclesSlots) {
  ValueArena arena;
  const std::string_view v = arena.format_value(42);
  EXPECT_EQ(v, "v:42");
  const std::string_view big = arena.format_value(18446744073709551615ull);
  EXPECT_EQ(big, "v:18446744073709551615");
  const char* const first_round_ptr = v.data();
  arena.release();
  // After release the cursor is back at the fixed buffer's start: the next
  // format reuses the first slot's storage.
  EXPECT_EQ(arena.format_value(7).data(), first_round_ptr);
  arena.release();
  // Sizing claim: a full batch of kMaxBatch values fits; one more would
  // spill past the fixed buffer and the null upstream throws instead of
  // silently touching the heap.
  for (std::size_t i = 0; i < server::kMaxBatch; ++i) {
    EXPECT_FALSE(arena.format_value(i).empty());
  }
  EXPECT_THROW(arena.format_value(0), std::bad_alloc);
  arena.release();
}

TEST(ValueArena, FormatReleaseCyclesAreHeapFree) {
  ValueArena arena;
  const std::uint64_t before = thread_alloc_count();
  for (int round = 0; round < 1000; ++round) {
    for (std::size_t i = 0; i < server::kMaxBatch; ++i) {
      arena.format_value(i * 1000003ull + static_cast<std::uint64_t>(round));
    }
    arena.release();
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

// The kernel's batch formation and route split on a lock-free profile:
// filing each member into its route as it is popped needs no scratch, so a
// full mixed kMaxBatch batch — admitted, popped, extended, routed and
// priced — touches the heap zero times. (A partition pass over the formed
// batch would not: libstdc++'s std::stable_partition allocates a buffer.)
TEST(ServiceCoreAlloc, FullMixedLockFreeBatchIsHeapFree) {
  KvServiceConfig cfg;
  cfg.engine = "mvcc";
  cfg.num_shards = 1;
  cfg.queue_capacity = server::kMaxBatch;
  cfg.batch_k = server::kMaxBatch;
  server::ServiceCore core(cfg, server::ServiceCore::Slots::kPerWorker);
  ASSERT_TRUE(core.cost().get_lock_free);
  Batch batch = core.batch();

  const std::uint64_t before = thread_alloc_count();
  std::uint64_t nops = 0;
  for (int round = 0; round < 100; ++round) {
    for (std::uint64_t i = 0; i < server::kMaxBatch; ++i) {
      const OpType op = i % 2 == 0 ? OpType::kPut : OpType::kGet;
      ASSERT_EQ(core.admit(Request{op, i, 0, Nanos{0}}, 0),
                server::TraceDecision::kAdmit);
    }
    Request head;
    ASSERT_TRUE(core.queue(0).try_pop(head));
    batch.start(head, 1);
    batch.extend(core.queue(0), [] { return Nanos{2}; });
    ASSERT_EQ(batch.size(), server::kMaxBatch);
    ASSERT_EQ(batch.cs_count(), server::kMaxBatch / 2);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      nops += core.price(batch[i].req.op, batch.segment(i)).nops;
    }
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
  EXPECT_GT(nops, 0u);
}

// MvKv's pooled copy-on-write path: after enough puts over a bounded
// keyspace the retire -> sweep -> freelist loop reaches equilibrium, and a
// further put cycle touches the heap zero times and grows the pool by zero
// nodes. Values stay within SSO capacity, like the service's "v:<key>".
TEST(AllocSteadyState, MvKvWarmedPutsReuseThePool) {
  db::MvKv kv;
  Rng rng(11);
  constexpr std::uint64_t kKeys = 256;
  // Warm until a whole window of puts allocates nothing — the pool's
  // high-water mark is hard-bounded (tree size + reclaimer backlog cap),
  // so the loop converges; single-threaded it usually takes one window.
  bool warmed = false;
  for (int window = 0; window < 10 && !warmed; ++window) {
    const std::uint64_t allocs = thread_alloc_count();
    for (std::uint64_t i = 0; i < 10000; ++i) {
      kv.put(rng.below(kKeys), "v:warm");
    }
    warmed = thread_alloc_count() == allocs;
  }
  ASSERT_TRUE(warmed);
  const std::size_t total_before = kv.pool_total();
  EXPECT_GT(total_before, 0u);
  EXPECT_GT(kv.pool_free(), 0u);
  const std::uint64_t allocs_before = thread_alloc_count();
  for (std::uint64_t i = 0; i < 5000; ++i) {
    kv.put(rng.below(kKeys), "v:steady");
    if (i % 8 == 0) {
      auto hit = kv.get(rng.below(kKeys));  // SSO copy, no heap
      (void)hit;
    }
  }
  EXPECT_EQ(thread_alloc_count() - allocs_before, 0u);
  EXPECT_EQ(kv.pool_total(), total_before);
}

// Shared body for the service steady-state audits: worker threads, shard
// locks, epoch feedback, arena-formatted puts — after a warmup window and
// a drain, another traffic window must leave the *process-wide* allocation
// count exactly where it was. Mirrors bench/kv_alloc_audit.cpp at unit
// scale (hash engine; the audit covers mvcc under threads too). Returns
// the service so callers can assert on post-stop observables.
void expect_service_window_heap_free(const KvServiceConfig& cfg,
                                     KvService& service) {
  service.start();

  Rng rng(3);
  auto pump = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const OpType op = (i % 4 == 0) ? OpType::kPut : OpType::kGet;
      while (!service.try_submit(op, rng.below(256), 0)) {
        std::this_thread::yield();
      }
    }
  };
  // Allocation-free drain detection: poll the queue depths (report() would
  // allocate inside the measured window), then let in-flight batches land.
  auto quiesce = [&] {
    for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
      while (service.queue_depth(s) != 0) std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };

  // Warm until one whole window is allocation-free (see the MvKv test for
  // why this converges), then pin the steady window at exactly zero.
  bool warmed = false;
  for (int window = 0; window < 10 && !warmed; ++window) {
    const std::uint64_t allocs = alloc_count();
    pump(5000);
    quiesce();
    warmed = alloc_count() == allocs;
  }
  ASSERT_TRUE(warmed);
  const std::uint64_t before = alloc_count();
  pump(5000);
  quiesce();
  EXPECT_EQ(alloc_count() - before, 0u);
  service.stop();
  const server::ServiceReport report = service.report();
  EXPECT_EQ(report.total_completed(), report.total_accepted());
}

KvServiceConfig alloc_steady_config() {
  KvServiceConfig cfg;
  cfg.engine = "hash";
  cfg.num_shards = 2;
  cfg.workers_per_shard = 1;
  cfg.queue_capacity = 64;
  cfg.batch_k = 4;
  cfg.prefill_keys = 256;
  cfg.classes.push_back(
      server::RequestClass{"alloc-test", 2 * kNanosPerMilli});
  return cfg;
}

TEST(AllocSteadyState, ServiceRequestWindowIsHeapFree) {
  const KvServiceConfig cfg = alloc_steady_config();
  KvService service(cfg);
  expect_service_window_heap_free(cfg, service);
}

// The DESIGN.md §11 wait-free recording rule at unit scale: with the full
// telemetry pipeline live — per-worker metric slots recorded on every
// request, the sampler thread folding them into the time-series log, and
// 1-in-N span capture into the per-thread rings — the steady traffic
// window must still allocate exactly zero bytes process-wide. Everything
// telemetry touches was preallocated at service start.
TEST(AllocSteadyState, ServiceWindowStaysHeapFreeWithTelemetryOn) {
  KvServiceConfig cfg = alloc_steady_config();
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_period_ns = 1 * kNanosPerMilli;
  cfg.telemetry.span_sample_every = 64;
  cfg.telemetry.span_ring_capacity = 512;
  KvService service(cfg);
  expect_service_window_heap_free(cfg, service);
  // The sampler actually ran during the audit — the zero above covered a
  // live pipeline, not an idle one.
  ASSERT_NE(service.telemetry(), nullptr);
  EXPECT_GT(service.telemetry()->ticks(), 0u);
  EXPECT_FALSE(service.telemetry()->log().empty());
}

}  // namespace
}  // namespace asl
