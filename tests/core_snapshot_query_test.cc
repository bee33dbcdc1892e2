// Snapshot query engine (core/snapshot_query.h): every query form must
// match its serial oracle exactly, at every degradation-ladder level — the
// ladder trades throughput, never verdicts.
#include <gtest/gtest.h>

#include <memory>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "core/snapshot_query.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "filter/slot_interval_grid.h"
#include "geom/box.h"
#include "geom/polygon.h"

namespace hasj {
namespace {

using core::DegradeLevel;
using core::SnapshotQueryOptions;
using core::SnapshotQueryResult;
using PairVec = std::vector<std::pair<int64_t, int64_t>>;
using IdVec = std::vector<int64_t>;

constexpr double kExtent = 200.0;

std::unique_ptr<data::VersionedDataset> MakeStore(int count,
                                                  uint64_t seed) {
  data::GeneratorProfile profile;
  profile.name = "snapshot-query";
  profile.count = count;
  profile.mean_vertices = 12;
  profile.max_vertices = 40;
  profile.extent = geom::Box(0, 0, kExtent, kExtent);
  profile.seed = seed;
  auto store = std::make_unique<data::VersionedDataset>(
      "snapshot-query", static_cast<size_t>(count) + 64);
  EXPECT_TRUE(store->SeedFrom(data::GenerateDataset(profile)).ok());
  return store;
}

geom::Polygon Probe(double cx, double cy, double half) {
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

IdVec Sorted(IdVec v) {
  std::sort(v.begin(), v.end());
  return v;
}

PairVec Sorted(PairVec v) {
  std::sort(v.begin(), v.end());
  return v;
}

class SnapshotQueryLadderTest : public ::testing::TestWithParam<DegradeLevel> {
};

TEST_P(SnapshotQueryLadderTest, SelectionMatchesOracle) {
  const auto store = MakeStore(120, 7);
  auto grid = filter::SlotIntervalGrid::Create(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  for (int i = 0; i < 6; ++i) {
    const geom::Polygon probe = Probe(30.0 + 25.0 * i, 40.0 + 20.0 * i, 18.0);
    const SnapshotQueryResult got = core::SnapshotSelection(snap, probe, options);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(Sorted(got.ids), core::OracleSelection(snap, probe));
  }
}

TEST_P(SnapshotQueryLadderTest, JoinMatchesOracle) {
  const auto store = MakeStore(90, 11);
  auto grid = filter::SlotIntervalGrid::Create(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const SnapshotQueryResult got = core::SnapshotJoin(snap, options);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(Sorted(got.pairs), core::OracleJoin(snap));
}

TEST_P(SnapshotQueryLadderTest, DistanceSelectionMatchesOracle) {
  const auto store = MakeStore(120, 13);
  auto grid = filter::SlotIntervalGrid::Create(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const geom::Polygon probe = Probe(100.0, 100.0, 15.0);
  for (const double d : {0.0, 5.0, 25.0}) {
    const SnapshotQueryResult got =
        core::SnapshotDistanceSelection(snap, probe, d, options);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(Sorted(got.ids), core::OracleDistanceSelection(snap, probe, d));
  }
}

TEST_P(SnapshotQueryLadderTest, DistanceJoinMatchesOracle) {
  const auto store = MakeStore(70, 17);
  auto grid = filter::SlotIntervalGrid::Create(
      geom::Box(0, 0, kExtent, kExtent), store->capacity(), {.grid_bits = 6});
  ASSERT_TRUE(grid.ok());
  SnapshotQueryOptions options;
  options.degrade = GetParam();
  options.intervals = &grid.value();
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const SnapshotQueryResult got =
      core::SnapshotDistanceJoin(snap, 4.0, options);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(Sorted(got.pairs), core::OracleDistanceJoin(snap, 4.0));
}

INSTANTIATE_TEST_SUITE_P(Ladder, SnapshotQueryLadderTest,
                         ::testing::Values(DegradeLevel::kNone,
                                           DegradeLevel::kLowRes,
                                           DegradeLevel::kIntervalsOnly));

TEST(DegradedHwConfigTest, LadderIsCumulativeAndDeterministic) {
  core::HwConfig hw;
  hw.resolution = 8;

  const core::HwConfig l0 =
      core::DegradedHwConfig(hw, true, DegradeLevel::kNone);
  EXPECT_TRUE(l0.enable_hw);
  EXPECT_EQ(l0.resolution, 8);

  const core::HwConfig l2 =
      core::DegradedHwConfig(hw, true, DegradeLevel::kLowRes);
  EXPECT_TRUE(l2.enable_hw);
  EXPECT_EQ(l2.resolution, 4);

  const core::HwConfig l3 =
      core::DegradedHwConfig(hw, true, DegradeLevel::kIntervalsOnly);
  EXPECT_FALSE(l3.enable_hw);
  EXPECT_EQ(l3.resolution, 4);
}

// Snapshot isolation end-to-end: a query against an old pin is oblivious
// to updates published after the pin, and its oracle agrees.
TEST(SnapshotQueryTest, PinnedSnapshotIgnoresLaterUpdates) {
  auto store = MakeStore(50, 23);
  const data::VersionedDataset::Snapshot before = store->snapshot();
  const geom::Polygon probe = Probe(100.0, 100.0, 60.0);
  const IdVec baseline =
      Sorted(core::SnapshotSelection(before, probe, {}).ids);

  // Insert a polygon dead-center in the probe window and delete one
  // baseline hit.
  const auto inserted = store->Insert(Probe(100.0, 100.0, 5.0));
  ASSERT_TRUE(inserted.ok());
  if (!baseline.empty()) {
    ASSERT_TRUE(store->Delete(baseline.front()).ok());
  }

  EXPECT_EQ(Sorted(core::SnapshotSelection(before, probe, {}).ids), baseline);
  EXPECT_EQ(core::OracleSelection(before, probe), baseline);

  const data::VersionedDataset::Snapshot after = store->snapshot();
  const IdVec updated = Sorted(core::SnapshotSelection(after, probe, {}).ids);
  EXPECT_NE(updated, baseline);
  EXPECT_TRUE(std::binary_search(updated.begin(), updated.end(),
                                 inserted.value()));
  EXPECT_EQ(updated, core::OracleSelection(after, probe));
}

template <typename T>
bool IsPrefix(const std::vector<T>& prefix, const std::vector<T>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

// Every snapshot form truncates the same way the
// offline pipelines do: a pre-cancelled token or a budget far below one
// poll interval stops the run with kDeadlineExceeded, and what it returns
// is a prefix of the unbounded run's in-order result.
TEST(SnapshotQueryTest, DeadlineTruncatesWithDeadlineExceeded) {
  const auto store = MakeStore(120, 29);
  const data::VersionedDataset::Snapshot snap = store->snapshot();
  const geom::Polygon probe = Probe(100.0, 100.0, 90.0);
  const auto run = [&](int form, const SnapshotQueryOptions& options) {
    switch (form) {
      case 0:
        return core::SnapshotSelection(snap, probe, options);
      case 1:
        return core::SnapshotJoin(snap, options);
      case 2:
        return core::SnapshotDistanceSelection(snap, probe, 5.0, options);
      default:
        return core::SnapshotDistanceJoin(snap, 5.0, options);
    }
  };
  CancelToken cancelled;
  cancelled.Cancel();
  for (int form = 0; form < 4; ++form) {
    const SnapshotQueryOptions options;
    const SnapshotQueryResult full = run(form, options);
    ASSERT_TRUE(full.status.ok());
    ASSERT_FALSE(full.ids.empty() && full.pairs.empty());
    for (const bool cancel : {true, false}) {
      SnapshotQueryOptions bounded = options;
      if (cancel) {
        bounded.hw.cancel = &cancelled;
      } else {
        bounded.hw.deadline_ms = 1e-6;
      }
      const SnapshotQueryResult got = run(form, bounded);
      SCOPED_TRACE("form " + std::to_string(form) +
                   (cancel ? " cancelled" : " deadline"));
      EXPECT_EQ(got.status.code(), StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(IsPrefix(got.ids, full.ids));
      EXPECT_TRUE(IsPrefix(got.pairs, full.pairs));
    }
  }
}

}  // namespace
}  // namespace hasj
