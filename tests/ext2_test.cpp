// LsmKv range scans: newest version wins across runs, tombstones are
// suppressed, a snapshot's range is stable under later writes, and empty
// and single-key ranges.
#include <gtest/gtest.h>

#include "db/lsmkv.h"

namespace asl {
namespace {

// -------------------------------------------------------------- LsmKv range

TEST(LsmKvRange, OrderedAndNewestWins) {
  db::LsmKv::Options opt;
  opt.memtable_limit = 8;  // force several runs
  db::LsmKv kv(opt);
  for (std::uint64_t i = 0; i < 100; ++i) kv.put(i, "v1");
  for (std::uint64_t i = 20; i < 40; ++i) kv.put(i, "v2");  // overwrite
  auto out = kv.range(10, 50);
  ASSERT_EQ(out.size(), 41u);
  std::uint64_t prev = 9;
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, prev + 1);
    prev = k;
    if (k >= 20 && k < 40) {
      EXPECT_EQ(v, "v2") << k;
    } else {
      EXPECT_EQ(v, "v1") << k;
    }
  }
}

TEST(LsmKvRange, TombstonesSuppressed) {
  db::LsmKv::Options opt;
  opt.memtable_limit = 4;
  db::LsmKv kv(opt);
  for (std::uint64_t i = 0; i < 20; ++i) kv.put(i, "v");
  kv.erase(5);
  kv.erase(7);
  auto out = kv.range(0, 19);
  EXPECT_EQ(out.size(), 18u);
  for (const auto& [k, v] : out) {
    EXPECT_NE(k, 5u);
    EXPECT_NE(k, 7u);
  }
}

TEST(LsmKvRange, SnapshotStability) {
  db::LsmKv kv;
  kv.put(1, "a");
  db::LsmKv::Snapshot snap = kv.snapshot();
  kv.put(2, "b");
  kv.erase(1);
  auto old_view = snap.range(0, 10);
  ASSERT_EQ(old_view.size(), 1u);
  EXPECT_EQ(old_view[0].second, "a");
  auto new_view = kv.range(0, 10);
  ASSERT_EQ(new_view.size(), 1u);
  EXPECT_EQ(new_view[0].first, 2u);
}

TEST(LsmKvRange, EmptyRange) {
  db::LsmKv kv;
  kv.put(100, "x");
  EXPECT_TRUE(kv.range(0, 50).empty());
  EXPECT_EQ(kv.range(100, 100).size(), 1u);
}

}  // namespace
}  // namespace asl
