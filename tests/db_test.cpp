// Mini database engine tests: CRUD, concurrency invariants, snapshot
// isolation, SQLite state-machine legality.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/btreekv.h"
#include "db/engine.h"
#include "db/hashkv.h"
#include "db/lsmkv.h"
#include "db/minisql.h"
#include "db/mvkv.h"
#include "platform/rng.h"

namespace asl::db {
namespace {

std::string key_of(std::uint64_t i) { return "key" + std::to_string(i); }
std::string val_of(std::uint64_t i) { return "val" + std::to_string(i); }

// --------------------------------------------------------------- HashKv
TEST(HashKv, PutGetRoundTrip) {
  HashKv kv(16);
  EXPECT_TRUE(kv.put("a", "1"));
  EXPECT_FALSE(kv.put("a", "2"));  // overwrite: not new
  EXPECT_EQ(kv.get("a").value_or(""), "2");
  EXPECT_FALSE(kv.get("missing").has_value());
}

TEST(HashKv, RemoveAndSize) {
  HashKv kv(8);
  for (std::uint64_t i = 0; i < 100; ++i) kv.put(key_of(i), val_of(i));
  EXPECT_EQ(kv.size(), 100u);
  EXPECT_TRUE(kv.remove(key_of(50)));
  EXPECT_FALSE(kv.remove(key_of(50)));
  EXPECT_EQ(kv.size(), 99u);
  EXPECT_FALSE(kv.get(key_of(50)).has_value());
}

TEST(HashKv, ForEachSeesEverything) {
  HashKv kv(4);
  for (std::uint64_t i = 0; i < 64; ++i) kv.put(key_of(i), val_of(i));
  std::set<std::string> seen;
  kv.for_each([&](const std::string& k, const std::string&) {
    seen.insert(k);
  });
  EXPECT_EQ(seen.size(), 64u);
}

TEST(HashKv, LargeStoreReadsBackAndIteratesEachKeyOnce) {
  // 2^15 keys on the service engine's 16 slots: the buckets keep every
  // chain short, every key reads back, and iteration walks every chain
  // exactly once — before and after erasing every other key.
  constexpr std::uint64_t kKeys = 1u << 15;
  HashKv kv(16);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(kv.put(key_of(i), val_of(i)));
  }
  // 8 keys per bucket on average. A bucket index correlated with the slot
  // (h % 256) fills 1 bucket in 16 and gives 140; FNV-1a's top byte, 41.
  EXPECT_LE(kv.longest_chain(), 32u);
  const auto check = [&kv](std::uint64_t stride, std::uint64_t first) {
    const std::uint64_t live = (kKeys - first + stride - 1) / stride;
    EXPECT_EQ(kv.size(), live);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      const bool present = i >= first && (i - first) % stride == 0;
      ASSERT_EQ(kv.get(key_of(i)).value_or("-"), present ? val_of(i) : "-")
          << i;
    }
    std::set<std::string> seen;
    std::uint64_t visits = 0;
    kv.for_each([&](const std::string& k, const std::string& v) {
      ++visits;
      seen.insert(k);
      EXPECT_EQ(v, "val" + k.substr(3));
    });
    EXPECT_EQ(visits, live);
    EXPECT_EQ(seen.size(), live) << "each key visited exactly once";
  };
  check(1, 0);
  for (std::uint64_t i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(kv.remove(key_of(i))) << i;
  }
  check(2, 1);
}

TEST(HashKv, ConcurrentMixedOps) {
  HashKv kv(32);
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t k = rng.below(256);
        switch (rng.below(3)) {
          case 0: kv.put(key_of(k), val_of(k)); break;
          case 1: kv.get(key_of(k)); break;
          default: kv.remove(key_of(k)); break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every surviving key must map to its own value (no torn writes).
  kv.for_each([&](const std::string& k, const std::string& v) {
    EXPECT_EQ("val" + k.substr(3), v);
  });
}

TEST(HashKv, ConcurrentForEachDoesNotDeadlock) {
  HashKv kv(8);
  for (std::uint64_t i = 0; i < 32; ++i) kv.put(key_of(i), val_of(i));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(5);
    while (!stop.load()) kv.put(key_of(rng.below(64)), "x");
  });
  for (int i = 0; i < 20; ++i) {
    std::size_t n = 0;
    kv.for_each([&](const std::string&, const std::string&) { ++n; });
    EXPECT_GE(n, 32u);
  }
  stop.store(true);
  writer.join();
}

// --------------------------------------------------------------- BtreeKv
TEST(BtreeKv, PutGetOverwrite) {
  BtreeKv kv;
  kv.put(10, "a");
  kv.put(10, "b");
  EXPECT_EQ(kv.get(10).value_or(""), "b");
  EXPECT_EQ(kv.size(), 1u);
}

TEST(BtreeKv, OrderedInsertSplitsCorrectly) {
  BtreeKv kv;
  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t i = 0; i < kN; ++i) kv.put(i, val_of(i));
  EXPECT_EQ(kv.size(), kN);
  EXPECT_GT(kv.height(), 1u);  // must have split
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(kv.get(i).value_or(""), val_of(i)) << i;
  }
}

TEST(BtreeKv, RandomInsertLookup) {
  BtreeKv kv;
  Rng rng(42);
  std::set<std::uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.below(1 << 20);
    keys.insert(k);
    kv.put(k, val_of(k));
  }
  EXPECT_EQ(kv.size(), keys.size());
  for (std::uint64_t k : keys) {
    ASSERT_TRUE(kv.get(k).has_value());
  }
  EXPECT_FALSE(kv.get(1 << 21).has_value());
}

TEST(BtreeKv, RangeScanOrderedAndComplete) {
  BtreeKv kv;
  for (std::uint64_t i = 0; i < 500; ++i) kv.put(i * 2, val_of(i));
  auto out = kv.range(100, 200);
  ASSERT_FALSE(out.empty());
  std::uint64_t prev = 0;
  for (const auto& [k, v] : out) {
    EXPECT_GE(k, 100u);
    EXPECT_LE(k, 200u);
    EXPECT_GT(k, prev);
    prev = k;
  }
  EXPECT_EQ(out.size(), 51u);  // 100,102,...,200
}

TEST(BtreeKv, EraseRemovesKey) {
  BtreeKv kv;
  for (std::uint64_t i = 0; i < 100; ++i) kv.put(i, val_of(i));
  EXPECT_TRUE(kv.erase(55));
  EXPECT_FALSE(kv.erase(55));
  EXPECT_FALSE(kv.get(55).has_value());
  EXPECT_EQ(kv.size(), 99u);
}

TEST(BtreeKv, CursorPoolRecycles) {
  BtreeKv kv;
  kv.put(1, "x");
  const std::size_t total_after_one = kv.pool_total();
  for (int i = 0; i < 100; ++i) kv.get(1);
  // Sequential ops reuse the same cursor; the pool must not grow.
  EXPECT_EQ(kv.pool_total(), total_after_one);
  EXPECT_EQ(kv.pool_free(), kv.pool_total());
}

TEST(BtreeKv, ConcurrentInsertsAllSurvive) {
  BtreeKv kv;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        const std::uint64_t k = static_cast<std::uint64_t>(t) * kPer + i;
        kv.put(k, val_of(k));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kv.size(), kThreads * kPer);
  for (std::uint64_t k = 0; k < kThreads * kPer; ++k) {
    ASSERT_EQ(kv.get(k).value_or(""), val_of(k));
  }
}

// ----------------------------------------------------------------- MvKv
TEST(MvKv, PutGetErase) {
  MvKv kv;
  kv.put(1, "a");
  kv.put(2, "b");
  EXPECT_EQ(kv.get(1).value_or(""), "a");
  EXPECT_TRUE(kv.erase(1));
  EXPECT_FALSE(kv.erase(1));
  EXPECT_FALSE(kv.get(1).has_value());
  EXPECT_EQ(kv.size(), 1u);
}

TEST(MvKv, SnapshotIsolation) {
  MvKv kv;
  kv.put(1, "old");
  MvKv::Snapshot snap = kv.snapshot();
  kv.put(1, "new");
  kv.put(2, "added");
  // The snapshot must still see the old world.
  EXPECT_EQ(snap.get(1).value_or(""), "old");
  EXPECT_FALSE(snap.get(2).has_value());
  // Fresh reads see the new world.
  EXPECT_EQ(kv.get(1).value_or(""), "new");
}

TEST(MvKv, VersionAdvancesOnWrites) {
  MvKv kv;
  const std::uint64_t v0 = kv.version();
  kv.put(1, "a");
  EXPECT_EQ(kv.version(), v0 + 1);
  kv.erase(1);
  EXPECT_EQ(kv.version(), v0 + 2);
  kv.erase(1);  // no-op: version unchanged
  EXPECT_EQ(kv.version(), v0 + 2);
}

TEST(MvKv, RangeQuery) {
  MvKv kv;
  for (std::uint64_t i = 0; i < 100; ++i) kv.put(i * 3, val_of(i));
  auto out = kv.range(30, 60);
  std::uint64_t prev = 0;
  for (const auto& [k, v] : out) {
    EXPECT_GE(k, 30u);
    EXPECT_LE(k, 60u);
    EXPECT_GE(k, prev);
    prev = k;
  }
  EXPECT_EQ(out.size(), 11u);  // 30,33,...,60
}

TEST(MvKv, DeleteWithTwoChildren) {
  MvKv kv;
  // Build a shape where the root has two children, then delete the root key.
  kv.put(50, "root");
  kv.put(25, "l");
  kv.put(75, "r");
  kv.put(60, "rl");
  EXPECT_TRUE(kv.erase(50));
  EXPECT_FALSE(kv.get(50).has_value());
  for (std::uint64_t k : {25u, 75u, 60u}) {
    EXPECT_TRUE(kv.get(k).has_value()) << k;
  }
}

TEST(MvKv, ConcurrentReadersDuringWrites) {
  MvKv kv;
  for (std::uint64_t i = 0; i < 500; ++i) kv.put(i, val_of(i));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      Rng rng(7);
      while (!stop.load()) {
        MvKv::Snapshot snap = kv.snapshot();
        // Within one snapshot, a key read twice must agree.
        const std::uint64_t k = rng.below(500);
        auto a = snap.get(k);
        auto b = snap.get(k);
        if (a != b) read_errors.fetch_add(1);
      }
    });
  }
  for (std::uint64_t i = 0; i < 2000; ++i) {
    kv.put(i % 500, "updated" + std::to_string(i));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0u);
}

// ----------------------------------------------------------------- LsmKv
TEST(LsmKv, PutGetNewestWins) {
  LsmKv kv;
  kv.put(1, "v1");
  kv.put(1, "v2");
  EXPECT_EQ(kv.get(1).value_or(""), "v2");
}

TEST(LsmKv, TombstoneHidesKey) {
  LsmKv kv;
  kv.put(1, "a");
  kv.erase(1);
  EXPECT_FALSE(kv.get(1).has_value());
  kv.put(1, "b");
  EXPECT_EQ(kv.get(1).value_or(""), "b");
}

TEST(LsmKv, RotationCreatesRuns) {
  LsmKv::Options opt;
  opt.memtable_limit = 16;
  LsmKv kv(opt);
  for (std::uint64_t i = 0; i < 100; ++i) kv.put(i, val_of(i));
  EXPECT_GT(kv.num_runs(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(kv.get(i).value_or(""), val_of(i)) << i;
  }
}

TEST(LsmKv, CompactionBoundsRunCount) {
  LsmKv::Options opt;
  opt.memtable_limit = 8;
  opt.max_runs = 3;
  LsmKv kv(opt);
  for (std::uint64_t i = 0; i < 500; ++i) kv.put(i % 64, val_of(i));
  EXPECT_LE(kv.num_runs(), 3u);
}

TEST(LsmKv, CompactAllPreservesData) {
  LsmKv::Options opt;
  opt.memtable_limit = 8;
  LsmKv kv(opt);
  for (std::uint64_t i = 0; i < 200; ++i) kv.put(i, val_of(i));
  kv.erase(13);
  kv.compact_all();
  EXPECT_EQ(kv.num_runs(), 1u);
  EXPECT_EQ(kv.memtable_entries(), 0u);
  EXPECT_FALSE(kv.get(13).has_value());
  EXPECT_EQ(kv.get(7).value_or(""), val_of(7));
}

TEST(LsmKv, SnapshotUnaffectedByLaterWrites) {
  LsmKv kv;
  kv.put(1, "old");
  LsmKv::Snapshot snap = kv.snapshot();
  kv.put(1, "new");
  EXPECT_EQ(snap.get(1).value_or(""), "old");
  EXPECT_EQ(kv.get(1).value_or(""), "new");
}

TEST(LsmKv, ConcurrentPutsAndGets) {
  LsmKv::Options opt;
  opt.memtable_limit = 64;
  LsmKv kv(opt);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 11);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t k = rng.below(128);
        if (rng.chance(0.5)) {
          kv.put(k, val_of(k));
        } else {
          auto v = kv.get(k);
          if (v.has_value()) {
            EXPECT_EQ(*v, val_of(k));
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------- LsmKv under churn

// Built via append rather than operator+ chains: GCC 12's -O2 -Wrestrict
// false-positives on "literal" + std::to_string(...) temporaries.
std::string round_val(int round, std::uint64_t key) {
  std::string s = "r";
  s += std::to_string(round);
  s += ':';
  s += std::to_string(key);
  return s;
}

TEST(LsmKv, SnapshotConsistentAcrossRotationAndCompaction) {
  // The satellite edge case: a snapshot taken before heavy write churn must
  // keep seeing one consistent version while the engine rotates memtables
  // and compacts runs underneath it — interleaved gets against the live
  // store see the new world the whole time.
  LsmKv::Options opt;
  opt.memtable_limit = 8;  // rotate constantly
  opt.max_runs = 2;        // compact constantly
  LsmKv kv(opt);
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    kv.put(k, round_val(0, k));
  }
  const LsmKv::Snapshot snap = kv.snapshot();

  for (int round = 1; round <= 5; ++round) {
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      kv.put(k, round_val(round, k));
      // Interleaved live get: always the newest version, mid-rotation or
      // mid-compaction alike.
      ASSERT_EQ(kv.get(k).value_or(""), round_val(round, k))
          << "round " << round << " key " << k;
      // Interleaved snapshot get: still round 0, every time.
      ASSERT_EQ(snap.get(k).value_or(""), round_val(0, k))
          << "round " << round << " key " << k;
    }
  }
  EXPECT_LE(kv.num_runs(), opt.max_runs) << "compaction must bound the runs";

  // A key erased after the snapshot stays visible in it.
  kv.erase(7);
  EXPECT_FALSE(kv.get(7).has_value());
  EXPECT_EQ(snap.get(7).value_or(""), round_val(0, 7));
}

TEST(LsmKv, ConcurrentSnapshotReadersSeeOneVersionPerKeyRead) {
  LsmKv::Options opt;
  opt.memtable_limit = 16;
  opt.max_runs = 3;
  LsmKv kv(opt);
  constexpr std::uint64_t kKeys = 128;
  for (std::uint64_t k = 0; k < kKeys; ++k) kv.put(k, "seed");
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inconsistencies{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      Rng rng(17);
      while (!stop.load()) {
        const LsmKv::Snapshot snap = kv.snapshot();
        const std::uint64_t k = rng.below(kKeys);
        // Within one snapshot, a key read twice must agree even while the
        // writer below forces rotation + compaction.
        if (snap.get(k) != snap.get(k)) inconsistencies.fetch_add(1);
      }
    });
  }
  for (std::uint64_t i = 0; i < 4000; ++i) {
    std::string v = "w";
    v += std::to_string(i);
    kv.put(i % kKeys, v);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(inconsistencies.load(), 0u);
  EXPECT_LE(kv.num_runs(), opt.max_runs);
}

TEST(BtreeKv, OverwriteAfterSplitsKeepsOneVersion) {
  BtreeKv kv;
  constexpr std::uint64_t kN = 2000;  // deep enough to have split
  for (std::uint64_t i = 0; i < kN; ++i) kv.put(i, val_of(i));
  ASSERT_GT(kv.height(), 1u);
  for (std::uint64_t i = 0; i < kN; i += 3) kv.put(i, "new" + val_of(i));
  EXPECT_EQ(kv.size(), kN) << "overwrites must not grow the tree";
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(kv.get(i).value_or(""),
              i % 3 == 0 ? "new" + val_of(i) : val_of(i))
        << i;
  }
}

TEST(BtreeKv, EraseThenReinsertRoundTrips) {
  BtreeKv kv;
  for (std::uint64_t i = 0; i < 300; ++i) kv.put(i, val_of(i));
  for (std::uint64_t i = 0; i < 300; i += 2) EXPECT_TRUE(kv.erase(i));
  EXPECT_EQ(kv.size(), 150u);
  for (std::uint64_t i = 0; i < 300; i += 2) {
    EXPECT_FALSE(kv.get(i).has_value()) << i;
    EXPECT_FALSE(kv.erase(i)) << "double erase must report absence";
  }
  for (std::uint64_t i = 0; i < 300; i += 2) kv.put(i, "back" + val_of(i));
  EXPECT_EQ(kv.size(), 300u);
  EXPECT_EQ(kv.get(42).value_or(""), "back" + val_of(42));
  EXPECT_EQ(kv.get(43).value_or(""), val_of(43));
}

// ------------------------------------------------------ engine registry
TEST(KvEngineRegistry, RoundTripsEveryRegisteredName) {
  const std::vector<std::string> names = kv_engine_names();
  ASSERT_GE(names.size(), 3u);
  for (const std::string& name : names) {
    const std::unique_ptr<KvEngine> engine = make_kv_engine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
    EXPECT_FALSE(default_cost_profile(name).empty())
        << name << " must ship a calibrated default CostProfile";
  }
  // Sorted, as documented (the benches rely on the order being stable).
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(KvEngineRegistry, UnknownNameYieldsClearError) {
  EXPECT_EQ(make_kv_engine("rocksdb"), nullptr);
  EXPECT_TRUE(default_cost_profile("rocksdb").empty());
  const std::string msg = kv_engine_error("rocksdb");
  EXPECT_NE(msg.find("rocksdb"), std::string::npos)
      << "the error must name the offending engine";
  for (const std::string& name : kv_engine_names()) {
    EXPECT_NE(msg.find(name), std::string::npos)
        << "the error must list the registered engines: " << msg;
  }
}

TEST(KvEngineContract, PutGetEraseSizeAcrossEngines) {
  for (const std::string& name : kv_engine_names()) {
    const std::unique_ptr<KvEngine> engine = make_kv_engine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_FALSE(engine->get(1).has_value()) << name;
    engine->put(1, "a");
    engine->put(2, "b");
    engine->put(1, "a2");  // overwrite: newest wins, size unchanged
    EXPECT_EQ(engine->get(1).value_or(""), "a2") << name;
    EXPECT_EQ(engine->get(2).value_or(""), "b") << name;
    EXPECT_EQ(engine->size(), 2u) << name;
    EXPECT_TRUE(engine->erase(1)) << name;
    EXPECT_FALSE(engine->erase(1)) << name << ": double erase";
    EXPECT_FALSE(engine->get(1).has_value()) << name;
    EXPECT_EQ(engine->size(), 1u) << name;
  }
}

TEST(KvEngineContract, CostProfilesEncodeTheDocumentedShapes) {
  // The checked-in classes carry the engine stories the sweep relies on:
  // hash symmetric, btree moderately put-heavier, LSM strongly put-heavy
  // under the lock with its get work pushed off-lock.
  const CostProfile hash = default_cost_profile("hash");
  const CostProfile btree = default_cost_profile("btree");
  const CostProfile lsm = default_cost_profile("lsm");
  EXPECT_EQ(hash.get.cs_nops, hash.put.cs_nops);
  EXPECT_GT(btree.put.cs_nops, btree.get.cs_nops);
  EXPECT_GT(lsm.put.cs_nops, lsm.get.cs_nops * 4);
  EXPECT_GT(lsm.get.post_nops, lsm.get.cs_nops)
      << "LSM gets read off-lock against the snapshot";
  // scaled() preserves asymmetry (it is not a fold back to one number).
  const CostProfile heavy = lsm.scaled(100.0);
  EXPECT_EQ(heavy.put.cs_nops, lsm.put.cs_nops * 100);
  EXPECT_EQ(heavy.get.cs_nops, lsm.get.cs_nops * 100);
  EXPECT_TRUE(CostProfile{}.empty());
  EXPECT_FALSE(lsm.empty());
}

TEST(KvEngineContract, LockFreeGetCapabilityMatchesProfileFlag) {
  // The engine's runtime capability and the registry profile's routing flag
  // are two statements of one fact — KvService routes on the profile, the
  // engine must actually be safe for it. Pin them together for every
  // registered engine, and pin which engines claim the capability at all.
  for (const std::string& name : kv_engine_names()) {
    const std::unique_ptr<KvEngine> engine = make_kv_engine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->lock_free_gets(), default_cost_profile(name).get_lock_free)
        << name << ": capability and profile flag must agree";
    EXPECT_EQ(engine->lock_free_gets(), name == "mvcc")
        << name << ": only the MVCC engine serves gets without the shard lock";
  }
  // scaled() must not drop the routing flag (it scales costs, not semantics).
  EXPECT_TRUE(default_cost_profile("mvcc").scaled(100.0).get_lock_free);
  EXPECT_FALSE(default_cost_profile("hash").scaled(100.0).get_lock_free);
}

TEST(KvEngineContract, BulkLoadMatchesAPutFilledEngine) {
  // bulk_load's contract (DESIGN.md §7): whatever shape an engine gives
  // its initial data, the result reads and writes exactly like the same
  // keys put one by one. Keys are spaced so later puts can land between
  // them.
  for (const std::string& name : kv_engine_names()) {
    for (const std::uint64_t n : {0u, 1u, 2u, 3u, 1000u}) {
      std::vector<std::uint64_t> keys(n);
      for (std::uint64_t i = 0; i < n; ++i) keys[i] = 3 * i + 1;
      const std::unique_ptr<KvEngine> loaded = make_kv_engine(name);
      const std::unique_ptr<KvEngine> put_filled = make_kv_engine(name);
      loaded->bulk_load(keys, "bulk");
      for (const std::uint64_t k : keys) put_filled->put(k, "bulk");
      const std::string at = name + " n=" + std::to_string(n);
      ASSERT_EQ(loaded->size(), n) << at;
      for (const std::uint64_t k : keys) {
        ASSERT_EQ(loaded->get(k).value_or("<missing>"), "bulk") << at;
      }
      EXPECT_FALSE(loaded->get(3 * n + 1).has_value()) << at;
      // The same later writes on both: an insert between loaded keys, an
      // overwrite, an erase of a loaded key and of a missing one.
      const std::uint64_t mid = n == 0 ? 0 : keys[n / 2];
      for (KvEngine* kv : {loaded.get(), put_filled.get()}) {
        kv->put(mid + 1, "new");
        kv->put(mid, "over");
      }
      EXPECT_EQ(loaded->erase(mid), put_filled->erase(mid)) << at;
      EXPECT_EQ(loaded->erase(mid + 2), put_filled->erase(mid + 2)) << at;
      EXPECT_EQ(loaded->size(), put_filled->size()) << at;
      for (std::uint64_t k = 0; k <= 3 * n + 2; ++k) {
        ASSERT_EQ(loaded->get(k), put_filled->get(k)) << at << " key " << k;
      }
    }
  }
}

TEST(KvEngineContractDeathTest, BulkLoadIntoANonEmptyEngineAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<std::uint64_t> keys = {1, 2, 3};
  for (const std::string& name : kv_engine_names()) {
    const std::unique_ptr<KvEngine> engine = make_kv_engine(name);
    engine->put(7, "x");
    EXPECT_DEATH(engine->bulk_load(keys, "v"), "not empty") << name;
  }
}

TEST(KvEngineContractDeathTest, BulkLoadOfUnsortedOrDuplicateKeysAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<std::uint64_t> unsorted = {1, 3, 2};
  const std::vector<std::uint64_t> duplicate = {1, 2, 2, 3};
  for (const std::string& name : kv_engine_names()) {
    const std::unique_ptr<KvEngine> engine = make_kv_engine(name);
    EXPECT_DEATH(engine->bulk_load(unsorted, "v"), "strictly ascending")
        << name;
    EXPECT_DEATH(engine->bulk_load(duplicate, "v"), "strictly ascending")
        << name;
  }
}

TEST(MvKv, BulkLoadBuildsAMinimalHeightTree) {
  // ceil(log2(n+1)) — the bit width of n — is the least height any BST of
  // n nodes can have; the median-first build reaches it for every n.
  for (const std::uint64_t n : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 1000u, 4096u}) {
    std::vector<std::uint64_t> keys(n);
    for (std::uint64_t i = 0; i < n; ++i) keys[i] = 2 * i;
    MvKv kv;
    kv.bulk_load(keys, "v");
    EXPECT_EQ(kv.height(), static_cast<std::size_t>(std::bit_width(n)))
        << "n=" << n;
    EXPECT_EQ(kv.size(), n);
    EXPECT_EQ(kv.reclaimer().retired_backlog(), 0u)
        << "a bulk load publishes once and retires nothing";
  }
  // Contrast: ascending puts build a chain, as deep as it is large.
  MvKv chain;
  for (std::uint64_t k = 0; k < 64; ++k) chain.put(k, "v");
  EXPECT_EQ(chain.height(), 64u);
}

TEST(MvKv, ReclaimerFreesRetiredVersionsUnderChurn) {
  // The engine-level view of DESIGN.md §8: put churn with no live snapshot
  // must actually free superseded version nodes (not just retire them), and
  // the outstanding backlog must respect the reclaimer's bound.
  MvKv kv;
  for (std::uint64_t i = 0; i < 2000; ++i) kv.put(i % 64, val_of(i));
  EXPECT_GT(kv.reclaimer().freed_count(), 0u)
      << "churn must recycle version nodes";
  EXPECT_LE(kv.reclaimer().retired_backlog(),
            kv.reclaimer().backlog_bound() + kv.reclaimer().batch())
      << "backlog must stay within one in-flight batch of the bound";
}

// --------------------------------------------------------------- MiniSql
TEST(MiniSql, CreateTableOnce) {
  MiniSql db;
  EXPECT_TRUE(db.create_table("t"));
  EXPECT_FALSE(db.create_table("t"));
  EXPECT_TRUE(db.has_table("t"));
  EXPECT_FALSE(db.has_table("u"));
}

TEST(MiniSql, InsertAndPointSelect) {
  MiniSql db;
  db.create_table("t");
  EXPECT_TRUE(db.insert("t", {1, 10, "one"}));
  EXPECT_TRUE(db.insert("t", {2, 20, "two"}));
  auto row = db.select_point("t", 2);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->payload, "two");
  EXPECT_FALSE(db.select_point("t", 3).has_value());
}

TEST(MiniSql, RangeSelectWithFilter) {
  MiniSql db;
  db.create_table("t");
  for (std::int64_t i = 0; i < 100; ++i) {
    db.insert("t", {i, i % 10, "row"});
  }
  auto rows = db.select_range("t", 10, 50, 5);
  for (const auto& r : rows) {
    EXPECT_GE(r.id, 10);
    EXPECT_LE(r.id, 50);
    EXPECT_GE(r.score, 5);
  }
  // ids 10..50 inclusive with score (id%10) >= 5: 5..9 in each decade.
  EXPECT_EQ(rows.size(), 20u);
}

TEST(MiniSql, FullScanReturnsAllRows) {
  MiniSql db;
  db.create_table("t");
  for (std::int64_t i = 0; i < 77; ++i) db.insert("t", {i, 0, "x"});
  EXPECT_EQ(db.full_scan("t").size(), 77u);
  EXPECT_EQ(db.table_rows("t"), 77u);
}

TEST(MiniSql, DeferredTxnTakesLocksLazily) {
  MiniSql db;
  db.create_table("t");
  MiniSql::Txn txn = db.begin();
  EXPECT_EQ(txn.state(), MiniSql::LockState::kUnlocked);  // DEFERRED
  txn.select_point("t", 1);
  EXPECT_EQ(txn.state(), MiniSql::LockState::kShared);
  txn.insert("t", {1, 0, "x"});
  EXPECT_EQ(txn.state(), MiniSql::LockState::kReserved);
  EXPECT_TRUE(txn.commit());
  EXPECT_EQ(db.global_state(), MiniSql::LockState::kUnlocked);
}

TEST(MiniSql, SecondWriterGetsBusy) {
  MiniSql db;
  db.create_table("t");
  MiniSql::Txn w1 = db.begin();
  EXPECT_TRUE(w1.insert("t", {1, 0, "a"}));
  MiniSql::Txn w2 = db.begin();
  EXPECT_FALSE(w2.insert("t", {2, 0, "b"}));  // SQLITE_BUSY
  w2.rollback();
  EXPECT_TRUE(w1.commit());
  // After w1 commits, a new writer proceeds.
  EXPECT_TRUE(db.insert("t", {2, 0, "b"}));
  EXPECT_GT(db.busy_rejections(), 0u);
}

TEST(MiniSql, RollbackDiscardsWrites) {
  MiniSql db;
  db.create_table("t");
  {
    MiniSql::Txn txn = db.begin();
    txn.insert("t", {1, 0, "x"});
    txn.rollback();
  }
  EXPECT_EQ(db.table_rows("t"), 0u);
  EXPECT_EQ(db.global_state(), MiniSql::LockState::kUnlocked);
}

TEST(MiniSql, DestructorRollsBack) {
  MiniSql db;
  db.create_table("t");
  {
    MiniSql::Txn txn = db.begin();
    txn.insert("t", {1, 0, "x"});
    // no commit
  }
  EXPECT_EQ(db.table_rows("t"), 0u);
}

TEST(MiniSql, ReadersCoexistWithReservedWriter) {
  MiniSql db;
  db.create_table("t");
  db.insert("t", {1, 0, "x"});
  MiniSql::Txn writer = db.begin();
  EXPECT_TRUE(writer.insert("t", {2, 0, "y"}));  // RESERVED held
  // A concurrent reader may still take SHARED.
  MiniSql::Txn reader = db.begin();
  EXPECT_TRUE(reader.select_point("t", 1).has_value());
  reader.rollback();
  EXPECT_TRUE(writer.commit());
}

TEST(MiniSql, ConcurrentTransactionsSerializeCorrectly) {
  MiniSql db;
  db.create_table("t");
  constexpr int kThreads = 4;
  constexpr int kPer = 300;
  std::atomic<std::int64_t> next_id{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int done = 0;
      while (done < kPer) {
        MiniSql::Txn txn = db.begin();
        const std::int64_t id = next_id.fetch_add(1);
        if (txn.insert("t", {id, id % 7, "p"})) {
          ASSERT_TRUE(txn.commit());
          ++done;
        } else {
          txn.rollback();  // busy: retry with a fresh id (ids may be sparse)
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.table_rows("t"), static_cast<std::size_t>(kThreads) * kPer);
  EXPECT_EQ(db.commits(), static_cast<std::uint64_t>(kThreads) * kPer);
}

}  // namespace
}  // namespace asl::db
