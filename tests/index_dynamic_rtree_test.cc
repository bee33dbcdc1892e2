#include "index/dynamic_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace hasj::index {
namespace {

using geom::Box;

std::vector<DynamicRTree::Entry> RandomEntries(hasj::Rng& rng, int n) {
  std::vector<DynamicRTree::Entry> entries;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    entries.push_back({Box(x, y, x + rng.Uniform(0, 5), y + rng.Uniform(0, 5)),
                       static_cast<int64_t>(i)});
  }
  return entries;
}

std::set<int64_t> LinearScanIntersects(
    const std::vector<DynamicRTree::Entry>& entries, const Box& window) {
  std::set<int64_t> out;
  for (const auto& e : entries) {
    if (e.box.Intersects(window)) out.insert(e.id);
  }
  return out;
}

using PairSet = std::set<std::pair<int64_t, int64_t>>;

std::set<int64_t> AsSet(const std::vector<int64_t>& ids) {
  return {ids.begin(), ids.end()};
}

TEST(DynamicRTreeTest, EmptyTree) {
  DynamicRTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.version(), 0u);
  DynamicRTree::Snapshot snap = tree.snapshot();
  EXPECT_EQ(snap.tree().size(), 0u);
  EXPECT_TRUE(snap.tree().QueryIntersects(Box(0, 0, 100, 100)).empty());
  EXPECT_TRUE(snap.tree().CheckInvariants().ok());
}

TEST(DynamicRTreeTest, InsertRejectsEmptyBox) {
  DynamicRTree tree;
  const Status s = tree.Insert(Box::Empty(), 1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.version(), 0u);
}

TEST(DynamicRTreeTest, InsertQueryMatchesLinearScan) {
  hasj::Rng rng(17);
  const auto entries = RandomEntries(rng, 300);
  DynamicRTree tree(8);
  for (const auto& e : entries) {
    ASSERT_TRUE(tree.Insert(e.box, e.id).ok());
  }
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_EQ(tree.version(), entries.size());
  DynamicRTree::Snapshot snap = tree.snapshot();
  ASSERT_TRUE(snap.tree().CheckInvariants().ok())
      << snap.tree().CheckInvariants().message();
  for (int q = 0; q < 50; ++q) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    const Box window(x, y, x + rng.Uniform(0, 20), y + rng.Uniform(0, 20));
    EXPECT_EQ(AsSet(snap.tree().QueryIntersects(window)),
              LinearScanIntersects(entries, window));
  }
}

TEST(DynamicRTreeTest, BulkLoadMatchesLinearScan) {
  hasj::Rng rng(23);
  const auto entries = RandomEntries(rng, 500);
  DynamicRTree tree;
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_EQ(tree.version(), 1u);
  DynamicRTree::Snapshot snap = tree.snapshot();
  ASSERT_TRUE(snap.tree().CheckInvariants().ok())
      << snap.tree().CheckInvariants().message();
  for (int q = 0; q < 50; ++q) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    const Box window(x, y, x + rng.Uniform(0, 15), y + rng.Uniform(0, 15));
    EXPECT_EQ(AsSet(snap.tree().QueryIntersects(window)),
              LinearScanIntersects(entries, window));
  }
  // A second bulk load into a non-empty tree is rejected.
  EXPECT_EQ(tree.BulkLoad(entries).code(), StatusCode::kInvalidArgument);
}

TEST(DynamicRTreeTest, DeleteRemovesExactEntry) {
  hasj::Rng rng(31);
  auto entries = RandomEntries(rng, 120);
  DynamicRTree tree(6);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());

  // Delete half the entries in shuffled order, checking invariants and
  // query equivalence along the way.
  for (int round = 0; round < 60; ++round) {
    const size_t pick =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(entries.size()) - 1));
    const DynamicRTree::Entry victim = entries[pick];
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(pick));
    ASSERT_TRUE(tree.Delete(victim.box, victim.id).ok());
    // Deleting again must miss: the entry is gone.
    EXPECT_EQ(tree.Delete(victim.box, victim.id).code(),
              StatusCode::kNotFound);
    DynamicRTree::Snapshot snap = tree.snapshot();
    ASSERT_TRUE(snap.tree().CheckInvariants().ok())
        << snap.tree().CheckInvariants().message();
    EXPECT_EQ(snap.tree().size(), entries.size());
    const Box window(20, 20, 70, 70);
    EXPECT_EQ(AsSet(snap.tree().QueryIntersects(window)),
              LinearScanIntersects(entries, window));
  }
}

TEST(DynamicRTreeTest, DeleteToEmptyAndReinsert) {
  DynamicRTree tree;
  std::vector<DynamicRTree::Entry> entries;
  hasj::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const double x = rng.Uniform(0, 50);
    const double y = rng.Uniform(0, 50);
    entries.push_back({Box(x, y, x + 1, y + 1), i});
    ASSERT_TRUE(tree.Insert(entries.back().box, entries.back().id).ok());
  }
  for (const auto& e : entries) {
    ASSERT_TRUE(tree.Delete(e.box, e.id).ok());
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.snapshot().tree().CheckInvariants().ok());
  ASSERT_TRUE(tree.Insert(Box(1, 1, 2, 2), 7).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(AsSet(tree.snapshot().tree().QueryIntersects(Box(0, 0, 3, 3))),
            (std::set<int64_t>{7}));
}

TEST(DynamicRTreeTest, DuplicateEntriesAreAMultiset) {
  DynamicRTree tree;
  const Box b(1, 1, 2, 2);
  ASSERT_TRUE(tree.Insert(b, 9).ok());
  ASSERT_TRUE(tree.Insert(b, 9).ok());
  EXPECT_EQ(tree.size(), 2u);
  ASSERT_TRUE(tree.Delete(b, 9).ok());
  EXPECT_EQ(tree.size(), 1u);
  ASSERT_TRUE(tree.Delete(b, 9).ok());
  EXPECT_EQ(tree.Delete(b, 9).code(), StatusCode::kNotFound);
}

TEST(DynamicRTreeTest, SnapshotsAreIsolatedFromLaterWrites) {
  DynamicRTree tree;
  ASSERT_TRUE(tree.Insert(Box(0, 0, 1, 1), 1).ok());
  DynamicRTree::Snapshot before = tree.snapshot();
  ASSERT_TRUE(tree.Insert(Box(10, 10, 11, 11), 2).ok());
  ASSERT_TRUE(tree.Delete(Box(0, 0, 1, 1), 1).ok());

  // The pinned version still sees exactly the state at pin time.
  EXPECT_EQ(before.tree().size(), 1u);
  EXPECT_EQ(AsSet(before.tree().QueryIntersects(Box(-1, -1, 20, 20))),
            (std::set<int64_t>{1}));
  EXPECT_TRUE(before.tree().CheckInvariants().ok());

  DynamicRTree::Snapshot after = tree.snapshot();
  EXPECT_EQ(after.tree().size(), 1u);
  EXPECT_EQ(AsSet(after.tree().QueryIntersects(Box(-1, -1, 20, 20))),
            (std::set<int64_t>{2}));
  EXPECT_GT(after.version(), before.version());
}

TEST(DynamicRTreeTest, RetiredVersionsReclaimWhenUnpinned) {
  DynamicRTree tree;
  ASSERT_TRUE(tree.Insert(Box(0, 0, 1, 1), 0).ok());
  {
    DynamicRTree::Snapshot pinned = tree.snapshot();
    for (int i = 1; i <= 8; ++i) {
      const double x = static_cast<double>(i);
      ASSERT_TRUE(tree.Insert(Box(x, x, x + 1, x + 1), i).ok());
    }
    // The pin holds every version since the pinned one in limbo.
    EXPECT_EQ(tree.limbo_versions(), 8);
    EXPECT_EQ(pinned.tree().size(), 1u);
  }
  // Dropping the last pin releases the parked versions; later writes
  // with no pins outstanding reclaim their predecessor immediately.
  EXPECT_EQ(tree.limbo_versions(), 0);
  ASSERT_TRUE(tree.Insert(Box(50, 50, 51, 51), 99).ok());
  EXPECT_EQ(tree.limbo_versions(), 0);
  EXPECT_EQ(tree.retired_versions(), tree.reclaimed_versions());
}

TEST(DynamicRTreeTest, CopiedSnapshotsShareOnePin) {
  DynamicRTree tree;
  ASSERT_TRUE(tree.Insert(Box(0, 0, 1, 1), 0).ok());
  DynamicRTree::Snapshot a = tree.snapshot();
  DynamicRTree::Snapshot b = a;
  ASSERT_TRUE(tree.Insert(Box(2, 2, 3, 3), 1).ok());
  EXPECT_EQ(tree.limbo_versions(), 1);
  a = DynamicRTree::Snapshot();
  EXPECT_EQ(tree.limbo_versions(), 1);  // b still pins the old version
  EXPECT_EQ(b.tree().size(), 1u);
  b = DynamicRTree::Snapshot();
  EXPECT_EQ(tree.limbo_versions(), 0);
}

TEST(DynamicRTreeTest, JoinIntersectsMatchesBruteForce) {
  hasj::Rng rng(41);
  const auto ea = RandomEntries(rng, 80);
  const auto eb = RandomEntries(rng, 90);
  DynamicRTree ta(8), tb(8);
  ASSERT_TRUE(ta.BulkLoad(ea).ok());
  ASSERT_TRUE(tb.BulkLoad(eb).ok());

  PairSet expected;
  for (const auto& a : ea) {
    for (const auto& b : eb) {
      if (a.box.Intersects(b.box)) expected.insert({a.id, b.id});
    }
  }
  const auto pairs =
      JoinIntersects(ta.snapshot().tree(), tb.snapshot().tree());
  EXPECT_EQ(PairSet(pairs.begin(), pairs.end()), expected);
}

TEST(DynamicRTreeTest, JoinWithinDistanceMatchesBruteForce) {
  hasj::Rng rng(43);
  const auto ea = RandomEntries(rng, 60);
  const auto eb = RandomEntries(rng, 60);
  DynamicRTree ta, tb;
  ASSERT_TRUE(ta.BulkLoad(ea).ok());
  ASSERT_TRUE(tb.BulkLoad(eb).ok());
  const double d = 3.0;

  PairSet expected;
  for (const auto& a : ea) {
    for (const auto& b : eb) {
      if (geom::MinDistance(a.box, b.box) <= d) expected.insert({a.id, b.id});
    }
  }
  const auto pairs = JoinWithinDistance(ta.snapshot().tree(),
                                         tb.snapshot().tree(), d);
  EXPECT_EQ(PairSet(pairs.begin(), pairs.end()), expected);
}

TEST(DynamicRTreeTest, SelfJoinAcrossVersions) {
  DynamicRTree tree;
  ASSERT_TRUE(tree.Insert(Box(0, 0, 2, 2), 1).ok());
  DynamicRTree::Snapshot old = tree.snapshot();
  ASSERT_TRUE(tree.Insert(Box(1, 1, 3, 3), 2).ok());
  const auto pairs = JoinIntersects(old.tree(), tree.snapshot().tree());
  // Old version has {1}; new has {1, 2}; both overlap entry 1's box.
  EXPECT_EQ(PairSet(pairs.begin(), pairs.end()), (PairSet{{1, 1}, {1, 2}}));
}

// Concurrency smoke: one writer churning inserts/deletes while readers
// pin snapshots and check structural invariants. Under TSan this covers
// the publish/pin/unpin protocol; verdict-level oracle checks live in the
// chaos suite.
TEST(DynamicRTreeTest, ConcurrentReadersSeeConsistentVersions) {
  DynamicRTree tree(8);
  hasj::Rng seed_rng(57);
  const auto seed = RandomEntries(seed_rng, 100);
  ASSERT_TRUE(tree.BulkLoad(seed).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    hasj::Rng rng(91);
    std::vector<DynamicRTree::Entry> live = seed;
    for (int i = 0; i < 400; ++i) {
      if (!live.empty() && rng.Bernoulli(0.45)) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        if (!tree.Delete(live[pick].box, live[pick].id).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        const double x = rng.Uniform(0, 100);
        const double y = rng.Uniform(0, 100);
        const DynamicRTree::Entry e{Box(x, y, x + 2, y + 2), 1000 + i};
        if (!tree.Insert(e.box, e.id).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        live.push_back(e);
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        DynamicRTree::Snapshot snap = tree.snapshot();
        if (!snap.tree().CheckInvariants().ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const size_t hits =
            snap.tree().QueryIntersects(Box(10, 10, 60, 60)).size();
        if (hits > snap.tree().size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(tree.limbo_versions(), 0);
  EXPECT_TRUE(tree.snapshot().tree().CheckInvariants().ok());
}

}  // namespace
}  // namespace hasj::index
