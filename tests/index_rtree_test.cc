#include "index/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "common/random.h"
#include "index/dynamic_rtree.h"

namespace hasj::index {
namespace {

using geom::Box;

std::vector<RTree::Entry> RandomEntries(hasj::Rng& rng, int n) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    entries.push_back({Box(x, y, x + rng.Uniform(0, 5), y + rng.Uniform(0, 5)),
                       static_cast<int64_t>(i)});
  }
  return entries;
}

std::set<int64_t> LinearScanIntersects(const std::vector<RTree::Entry>& entries,
                                       const Box& window) {
  std::set<int64_t> out;
  for (const auto& e : entries) {
    if (e.box.Intersects(window)) out.insert(e.id);
  }
  return out;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.QueryIntersects(Box(0, 0, 100, 100)).empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeTest, SingleEntry) {
  DynamicRTree dynamic;
  ASSERT_TRUE(dynamic.Insert(Box(1, 1, 2, 2), 42).ok());
  const DynamicRTree::Snapshot snap = dynamic.snapshot();
  const RTree& tree = snap.tree();
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1);
  const auto hits = tree.QueryIntersects(Box(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
  EXPECT_TRUE(tree.QueryIntersects(Box(5, 5, 6, 6)).empty());
}

class RTreeBuildTest : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  // A fanout-8 tree over `entries`: STR-built when `bulk`, else built by
  // one DynamicRTree::Insert (quadratic split) per entry and read through
  // the pinned version.
  const RTree& Build(std::vector<RTree::Entry> entries, bool bulk) {
    if (bulk) {
      bulk_ = RTree::BulkLoad(std::move(entries), 8);
      return bulk_;
    }
    for (const auto& e : entries) {
      EXPECT_TRUE(dynamic_.Insert(e.box, e.id).ok());
    }
    pinned_ = dynamic_.snapshot();
    return pinned_.tree();
  }

 private:
  RTree bulk_;
  DynamicRTree dynamic_{8};
  DynamicRTree::Snapshot pinned_;  // unpins before dynamic_ goes
};

TEST_P(RTreeBuildTest, QueriesMatchLinearScan) {
  const auto [n, bulk] = GetParam();
  hasj::Rng rng(static_cast<uint64_t>(n) * 7919 + bulk);
  const auto entries = RandomEntries(rng, n);

  const RTree& tree = Build(entries, bulk);
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();

  for (int q = 0; q < 50; ++q) {
    const double x = rng.Uniform(-10, 110);
    const double y = rng.Uniform(-10, 110);
    const Box window(x, y, x + rng.Uniform(0, 30), y + rng.Uniform(0, 30));
    const auto got = tree.QueryIntersects(window);
    const std::set<int64_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set.size(), got.size()) << "duplicate results";
    EXPECT_EQ(got_set, LinearScanIntersects(entries, window));
  }
}

TEST_P(RTreeBuildTest, DistanceQueriesMatchLinearScan) {
  const auto [n, bulk] = GetParam();
  hasj::Rng rng(static_cast<uint64_t>(n) * 104729 + bulk);
  const auto entries = RandomEntries(rng, n);
  const RTree& tree = Build(entries, bulk);
  for (int q = 0; q < 30; ++q) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    const Box query(x, y, x + 2, y + 2);
    const double d = rng.Uniform(0, 20);
    const auto got = tree.QueryWithinDistance(query, d);
    std::set<int64_t> expected;
    for (const auto& e : entries) {
      if (geom::MinDistance(e.box, query) <= d) expected.insert(e.id);
    }
    EXPECT_EQ(std::set<int64_t>(got.begin(), got.end()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RTreeBuildTest,
    ::testing::Combine(::testing::Values(1, 7, 8, 9, 64, 500, 3000),
                       ::testing::Bool()));

TEST(RTreeJoinTest, IntersectionJoinMatchesNestedLoop) {
  hasj::Rng rng(71);
  const auto ea = RandomEntries(rng, 300);
  const auto eb = RandomEntries(rng, 400);
  const RTree ta = RTree::BulkLoad(ea, 8);
  const RTree tb = RTree::BulkLoad(eb, 8);

  auto got = JoinIntersects(ta, tb);
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());

  std::vector<std::pair<int64_t, int64_t>> expected;
  for (const auto& a : ea) {
    for (const auto& b : eb) {
      if (a.box.Intersects(b.box)) expected.emplace_back(a.id, b.id);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
  EXPECT_GT(got.size(), 0u);
}

TEST(RTreeJoinTest, DistanceJoinMatchesNestedLoop) {
  hasj::Rng rng(73);
  const auto ea = RandomEntries(rng, 200);
  const auto eb = RandomEntries(rng, 250);
  const RTree ta = RTree::BulkLoad(ea, 8);
  const RTree tb = RTree::BulkLoad(eb, 8);
  for (double d : {0.0, 1.0, 5.0}) {
    auto got = JoinWithinDistance(ta, tb, d);
    std::sort(got.begin(), got.end());
    std::vector<std::pair<int64_t, int64_t>> expected;
    for (const auto& a : ea) {
      for (const auto& b : eb) {
        if (geom::MinDistance(a.box, b.box) <= d) {
          expected.emplace_back(a.id, b.id);
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "d=" << d;
  }
}

TEST(RTreeJoinTest, MixedHeightTrees) {
  hasj::Rng rng(75);
  const auto ea = RandomEntries(rng, 1000);  // tall tree
  const auto eb = RandomEntries(rng, 5);     // single leaf
  const RTree ta = RTree::BulkLoad(ea, 8);
  const RTree tb = RTree::BulkLoad(eb, 8);
  EXPECT_GT(ta.height(), tb.height());
  auto got = JoinIntersects(ta, tb);
  std::sort(got.begin(), got.end());
  std::vector<std::pair<int64_t, int64_t>> expected;
  for (const auto& a : ea) {
    for (const auto& b : eb) {
      if (a.box.Intersects(b.box)) expected.emplace_back(a.id, b.id);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
  // Symmetric orientation.
  auto got_rev = JoinIntersects(tb, ta);
  EXPECT_EQ(got_rev.size(), got.size());
}

TEST(RTreeJoinTest, EmptyTreesYieldNoPairs) {
  RTree empty;
  hasj::Rng rng(77);
  const RTree full = RTree::BulkLoad(RandomEntries(rng, 50), 8);
  EXPECT_TRUE(JoinIntersects(empty, full).empty());
  EXPECT_TRUE(JoinIntersects(full, empty).empty());
  EXPECT_TRUE(JoinWithinDistance(empty, empty, 10).empty());
}

TEST(RTreeTest, NodesTouchedSaneBounds) {
  hasj::Rng rng(0xaa1);
  const RTree tree = RTree::BulkLoad(RandomEntries(rng, 2000), 8);
  // Whole-extent query touches every node; empty-region query touches at
  // most the root.
  const int64_t all = tree.NodesTouched(Box(-100, -100, 1200, 1200));
  EXPECT_GE(all, static_cast<int64_t>(2000 / 8));
  EXPECT_LE(tree.NodesTouched(Box(5000, 5000, 5001, 5001)), 1);
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  DynamicRTree dynamic(8);
  hasj::Rng rng(79);
  for (const auto& e : RandomEntries(rng, 2000)) {
    ASSERT_TRUE(dynamic.Insert(e.box, e.id).ok());
  }
  const DynamicRTree::Snapshot snap = dynamic.snapshot();
  const RTree& tree = snap.tree();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GE(tree.height(), 3);
  EXPECT_LE(tree.height(), 8);
}

}  // namespace
}  // namespace hasj::index
