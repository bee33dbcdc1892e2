// Raster-interval secondary filter (filter/interval_approx, DESIGN.md §12):
// Hilbert index properties, golden cell classification on hand-checkable
// grids, degenerate-object all-PARTIAL behaviour, budget/fault
// degradation to unapproximated, epoch-keyed cache invalidation —
// including the reload-then-query regression for in-place dataset reloads
// — and the paranoid oracle over the interval filter's accept and reject
// sides.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/polygon_intersect.h"
#include "common/fault.h"
#include "common/status.h"
#include "core/paranoid.h"
#include "core/selection.h"
#include "data/dataset.h"
#include "data/io.h"
#include "filter/interval_approx.h"
#include "filter/slot_interval_grid.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/polygon.h"

namespace hasj {
namespace {

using filter::BuildIntervalApprox;
using filter::CellInterval;
using filter::DecidePair;
using filter::HilbertIndex;
using filter::IntervalApprox;
using filter::IntervalApproxCache;
using filter::IntervalApproxConfig;
using filter::IntervalVerdict;
using filter::ObjectIntervals;

geom::Polygon BoxPolygon(double x0, double y0, double x1, double y1) {
  return geom::Polygon(
      {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

int64_t TotalCells(const std::vector<CellInterval>& intervals) {
  int64_t total = 0;
  for (const CellInterval& iv : intervals) {
    total += static_cast<int64_t>(iv.hi) - static_cast<int64_t>(iv.lo);
  }
  return total;
}

bool Covers(const std::vector<CellInterval>& intervals, uint32_t h) {
  for (const CellInterval& iv : intervals) {
    if (h >= iv.lo && h < iv.hi) return true;
  }
  return false;
}

TEST(HilbertIndexTest, BijectiveAndUnitStepAdjacent) {
  constexpr int kBits = 4;
  constexpr uint32_t kSide = 1u << kBits;
  std::vector<int> seen(kSide * kSide, 0);
  std::vector<std::pair<uint32_t, uint32_t>> cell_of(kSide * kSide);
  for (uint32_t y = 0; y < kSide; ++y) {
    for (uint32_t x = 0; x < kSide; ++x) {
      const uint32_t d = HilbertIndex(kBits, x, y);
      ASSERT_LT(d, kSide * kSide) << "(" << x << "," << y << ")";
      ++seen[d];
      cell_of[d] = {x, y};
    }
  }
  for (uint32_t d = 0; d < kSide * kSide; ++d) {
    EXPECT_EQ(seen[d], 1) << "index " << d;
  }
  // The defining Hilbert property: consecutive indices are 4-neighbours,
  // which is what makes sorted interval lists spatially coherent.
  for (uint32_t d = 1; d < kSide * kSide; ++d) {
    const auto [x0, y0] = cell_of[d - 1];
    const auto [x1, y1] = cell_of[d];
    const uint32_t manhattan = (x0 > x1 ? x0 - x1 : x1 - x0) +
                               (y0 > y1 ? y0 - y1 : y1 - y0);
    EXPECT_EQ(manhattan, 1u) << "step " << d;
  }
}

TEST(IntervalApproxTest, GoldenCellsForCenteredSquare) {
  // Frame [0,8]^2, 8x8 grid of unit cells; square [1,7]^2. The boundary
  // touches (closed contact) every cell in columns/rows {0,1,6,7}; the
  // 4x4 block {2..5}^2 lies strictly inside, so:
  //   ALL  = every cell  (64), FULL = the inner block (16).
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> polygons = {BoxPolygon(1, 1, 7, 7)};
  IntervalApproxConfig config;
  config.grid_bits = 3;
  const Result<IntervalApprox> built =
      BuildIntervalApprox(polygons, frame, config);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const IntervalApprox& approx = built.value();
  ASSERT_EQ(approx.size(), 1u);
  const ObjectIntervals& obj = approx.object(0);
  ASSERT_TRUE(obj.approximated);
  EXPECT_EQ(TotalCells(obj.all), 64);
  EXPECT_EQ(TotalCells(obj.full), 16);
  for (uint32_t y = 0; y < 8; ++y) {
    for (uint32_t x = 0; x < 8; ++x) {
      const uint32_t h = HilbertIndex(3, x, y);
      EXPECT_TRUE(Covers(obj.all, h)) << "(" << x << "," << y << ")";
      const bool interior = x >= 2 && x <= 5 && y >= 2 && y <= 5;
      EXPECT_EQ(Covers(obj.full, h), interior)
          << "(" << x << "," << y << ")";
    }
  }
  EXPECT_EQ(approx.stats().objects, 1);
  EXPECT_EQ(approx.stats().unapproximated, 0);
  EXPECT_GT(approx.stats().interval_count, 0);
}

TEST(IntervalApproxTest, DecidePairGoldenVerdicts) {
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> polygons = {
      BoxPolygon(1, 1, 3, 3),  // 0: far left
      BoxPolygon(5, 5, 7, 7),  // 1: far right (cell-disjoint from 0)
      BoxPolygon(1, 1, 5, 5),  // 2: overlaps 3's interior
      BoxPolygon(3, 3, 7, 7),  // 3
  };
  IntervalApproxConfig config;
  config.grid_bits = 3;
  const Result<IntervalApprox> built =
      BuildIntervalApprox(polygons, frame, config);
  ASSERT_TRUE(built.ok());
  const IntervalApprox& approx = built.value();
  EXPECT_EQ(DecidePair(approx.object(0), approx.object(1)),
            IntervalVerdict::kMiss);
  EXPECT_EQ(DecidePair(approx.object(2), approx.object(3)),
            IntervalVerdict::kHit);
  // Either side unapproximated is never decided.
  const ObjectIntervals empty_side;
  EXPECT_EQ(DecidePair(empty_side, approx.object(0)),
            IntervalVerdict::kInconclusive);
  EXPECT_EQ(DecidePair(approx.object(0), empty_side),
            IntervalVerdict::kInconclusive);
}

TEST(IntervalApproxTest, DegenerateObjectsAreNeverFull) {
  // Zero-area and sub-ring inputs have no interior: their cells must all be
  // PARTIAL (full list empty) so they can never manufacture a TRUE HIT
  // through a FULL cell they do not actually fill.
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> degenerates = {
      geom::Polygon({{3, 3}}),                  // single vertex
      geom::Polygon({{1, 1}, {6, 6}}),          // two-vertex chain
      geom::Polygon({{1, 1}, {4, 1}, {7, 1}}),  // collinear, zero area
      geom::Polygon({{1, 1}, {7, 1}, {1, 1}}),  // folded A-B-A spike
  };
  IntervalApproxConfig config;
  config.grid_bits = 3;
  const Result<IntervalApprox> built =
      BuildIntervalApprox(degenerates, frame, config);
  ASSERT_TRUE(built.ok());
  for (size_t i = 0; i < degenerates.size(); ++i) {
    const ObjectIntervals& obj = built.value().object(i);
    EXPECT_TRUE(obj.approximated) << "object " << i;
    EXPECT_FALSE(obj.all.empty()) << "object " << i;
    EXPECT_TRUE(obj.full.empty()) << "object " << i;
  }
  // Same invariant through the ad-hoc query path.
  const ObjectIntervals q =
      built.value().ApproximateObject(degenerates[1]);
  EXPECT_TRUE(q.approximated);
  EXPECT_TRUE(q.full.empty());
}

TEST(IntervalApproxTest, BudgetExhaustionDegradesToInconclusive) {
  // A diagonal chain crosses ~2n cells whose Hilbert indices are scattered,
  // so at 64x64 its interval list cannot fit the minimum 256-byte share a
  // zero budget leaves — the object must opt out, never truncate.
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> polygons = {
      geom::Polygon({{0.1, 0.1}, {7.9, 7.9}}),
      BoxPolygon(1, 1, 1.2, 1.2),  // ~2x2 cells: fits the minimum share
  };
  IntervalApproxConfig config;
  config.grid_bits = 6;
  const Result<IntervalApprox> unlimited =
      BuildIntervalApprox(polygons, frame, config);
  ASSERT_TRUE(unlimited.ok());
  ASSERT_TRUE(unlimited.value().object(0).approximated);
  ASSERT_GT(TotalCells(unlimited.value().object(0).all), 64);

  config.memory_budget_bytes = 0;  // 256-byte minimum share per object
  const Result<IntervalApprox> squeezed =
      BuildIntervalApprox(polygons, frame, config);
  ASSERT_TRUE(squeezed.ok());
  const ObjectIntervals& diagonal = squeezed.value().object(0);
  EXPECT_FALSE(diagonal.approximated);
  EXPECT_TRUE(diagonal.all.empty());
  EXPECT_EQ(squeezed.value().stats().unapproximated, 1);
  EXPECT_EQ(DecidePair(diagonal, squeezed.value().object(1)),
            IntervalVerdict::kInconclusive);
}

TEST(IntervalApproxTest, InvalidConfigIsRejected) {
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> polygons = {BoxPolygon(1, 1, 3, 3)};
  IntervalApproxConfig config;
  config.grid_bits = 0;
  EXPECT_EQ(BuildIntervalApprox(polygons, frame, config).status().code(),
            StatusCode::kInvalidArgument);
  config.grid_bits = 13;
  EXPECT_EQ(BuildIntervalApprox(polygons, frame, config).status().code(),
            StatusCode::kInvalidArgument);
  config.grid_bits = 3;
  config.memory_budget_bytes = -1;
  EXPECT_EQ(BuildIntervalApprox(polygons, frame, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IntervalApproxTest, DatasetLoadFaultDegradesOnlyTheFaultedObject) {
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> polygons = {
      BoxPolygon(1, 1, 3, 3), BoxPolygon(3, 3, 5, 5), BoxPolygon(5, 5, 7, 7)};
  FaultInjector faults(7);
  faults.SetPlan(FaultSite::kDatasetLoad, FaultPlan::OneShot(2));
  IntervalApproxConfig config;
  config.grid_bits = 3;
  config.faults = &faults;
  const Result<IntervalApprox> built =
      BuildIntervalApprox(polygons, frame, config);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().stats().unapproximated, 1);
  int degraded = 0;
  for (size_t i = 0; i < built.value().size(); ++i) {
    if (!built.value().object(i).approximated) ++degraded;
  }
  EXPECT_EQ(degraded, 1);
  EXPECT_EQ(faults.fired(FaultSite::kDatasetLoad), 1);
}

TEST(IntervalApproxTest, CacheReusesSnapshotUntilEpochOrConfigChanges) {
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> polygons = {BoxPolygon(1, 1, 7, 7)};
  IntervalApproxCache cache;
  IntervalApproxConfig config;
  config.grid_bits = 3;
  const auto first = cache.Acquire(polygons, frame, /*epoch=*/1, config);
  ASSERT_TRUE(first.ok());
  const auto again = cache.Acquire(polygons, frame, /*epoch=*/1, config);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.value().get(), again.value().get());

  const auto reloaded = cache.Acquire(polygons, frame, /*epoch=*/2, config);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(first.value().get(), reloaded.value().get());

  config.grid_bits = 4;
  const auto regridded = cache.Acquire(polygons, frame, /*epoch=*/2, config);
  ASSERT_TRUE(regridded.ok());
  EXPECT_NE(reloaded.value().get(), regridded.value().get());
  EXPECT_EQ(regridded.value()->grid_bits(), 4);
}

TEST(IntervalApproxTest, ReloadInPlaceInvalidatesFilterState) {
  // Regression for the stale-snapshot bug: reload a dataset in place with a
  // same-MBR, different-geometry polygon (so the construction-time R-tree
  // stays valid) and re-run a selection whose interval filter was warmed
  // on the old geometry. Stale snapshots would keep
  // answering for the old square; the epoch key forces a rebuild.
  data::Dataset ds("reload");
  ds.Add(BoxPolygon(2, 2, 6, 6));

  data::Dataset replacement("replacement");
  // Triangle with the same [2,6]^2 MBR but empty below x + y = 8.
  replacement.Add(geom::Polygon({{6, 2}, {6, 6}, {2, 6}}));
  const std::string path =
      ::testing::TempDir() + "interval_reload.wkt";
  ASSERT_TRUE(data::SaveDataset(replacement, path).ok());

  const geom::Polygon query = BoxPolygon(2.1, 2.1, 2.9, 2.9);
  ASSERT_TRUE(algo::PolygonsIntersect(ds.polygon(0), query));
  ASSERT_FALSE(algo::PolygonsIntersect(replacement.polygon(0), query));

  const core::IntersectionSelection selection(ds);
  core::SelectionOptions options;
  options.hw.use_intervals = true;
  options.hw.interval_grid_bits = 5;
  const core::SelectionResult warm = selection.Run(query, options);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(warm.ids, std::vector<int64_t>{0});

  ASSERT_TRUE(data::ReloadDatasetInPlace(path, &ds).ok());
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.name(), "reload");  // reload keeps the identity

  const core::SelectionResult reloaded = selection.Run(query, options);
  ASSERT_TRUE(reloaded.status.ok());
  EXPECT_TRUE(reloaded.ids.empty());

  // And a selection built fresh on the reloaded dataset agrees.
  const core::IntersectionSelection fresh(ds);
  const core::SelectionResult baseline = fresh.Run(query, options);
  ASSERT_TRUE(baseline.status.ok());
  EXPECT_EQ(baseline.ids, reloaded.ids);
  std::remove(path.c_str());
}

TEST(IntervalApproxTest, ReloadInPlaceIsAllOrNothing) {
  data::Dataset ds("keep");
  ds.Add(BoxPolygon(0, 0, 1, 1));
  const uint64_t epoch_before = ds.epoch();
  const Status missing = data::ReloadDatasetInPlace(
      ::testing::TempDir() + "interval_reload_missing.wkt", &ds);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.epoch(), epoch_before);  // untouched on failure
}

TEST(IntervalApproxTest, ClippedQueriesOutsideTheFrameStaySound) {
  // Query objects are approximated against the dataset frame; geometry
  // outside it is clipped away. That is sound in both directions: a frame
  // fully inside the query becomes all-FULL (genuine hit), and a query
  // entirely outside the frame shares no in-frame cell with any dataset
  // object (genuine miss, since dataset objects lie inside the frame).
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<geom::Polygon> polygons = {BoxPolygon(1, 1, 3, 3)};
  IntervalApproxConfig config;
  config.grid_bits = 3;
  const Result<IntervalApprox> built =
      BuildIntervalApprox(polygons, frame, config);
  ASSERT_TRUE(built.ok());

  const geom::Polygon covering = BoxPolygon(-10, -10, 10, 10);
  const ObjectIntervals covering_iv =
      built.value().ApproximateObject(covering);
  ASSERT_TRUE(covering_iv.approximated);
  EXPECT_EQ(DecidePair(covering_iv, built.value().object(0)),
            IntervalVerdict::kHit);
  ASSERT_TRUE(algo::PolygonsIntersect(covering, polygons[0]));

  const geom::Polygon outside = BoxPolygon(20, 20, 21, 21);
  const ObjectIntervals outside_iv =
      built.value().ApproximateObject(outside);
  ASSERT_TRUE(outside_iv.approximated);
  EXPECT_EQ(DecidePair(outside_iv, built.value().object(0)),
            IntervalVerdict::kMiss);
  ASSERT_FALSE(algo::PolygonsIntersect(outside, polygons[0]));
}

TEST(SlotIntervalGridTest, OutOfFrameSlotsStayInconclusive) {
  // A store's grid frame is fixed at creation, so a stored object may
  // straddle it. Clipped to the frame, two such objects that overlap only
  // outside it would look disjoint: the grid must leave them
  // unapproximated (inconclusive), never a TRUE MISS.
  const geom::Box frame(0, 0, 8, 8);
  auto grid = filter::SlotIntervalGrid::Create(frame, 3, {.grid_bits = 4});
  ASSERT_TRUE(grid.ok());
  // A bar crossing the left edge, and an L whose in-frame part lies far
  // above it; the two meet only at x < 0.
  const geom::Polygon bar = BoxPolygon(-4, 1, 1, 2);
  const geom::Polygon ell({{-3, 0}, {-2, 0}, {-2, 5}, {3, 5}, {3, 6}, {-3, 6}});
  ASSERT_TRUE(algo::PolygonsIntersect(bar, ell));
  EXPECT_FALSE(grid.value().Get(0, bar).approximated);
  EXPECT_EQ(DecidePair(grid.value().Get(0, bar), grid.value().Get(1, ell)),
            IntervalVerdict::kInconclusive);
  // In-frame objects are approximated as before.
  const geom::Polygon inside = BoxPolygon(1, 1, 3, 3);
  EXPECT_TRUE(grid.value().Get(2, inside).approximated);
}

TEST(IntervalParanoidTest, OracleFiresOnBothWrongSides) {
  // The interval filter is the first stage allowed to *accept* without
  // refinement, so its oracle guards both decision sides.
  int violations = 0;
  std::string last_dump;
  core::paranoid::SetViolationHandlerForTest(
      [&violations, &last_dump](const std::string& dump) {
        ++violations;
        last_dump = dump;
      });
  const core::HwConfig config;
  const geom::Polygon a = BoxPolygon(0, 0, 1, 1);
  const geom::Polygon far_away = BoxPolygon(3, 3, 4, 4);
  const geom::Polygon overlapping = BoxPolygon(0.5, 0.5, 1.5, 1.5);

  core::paranoid::CheckIntervalAccept(a, overlapping, config);
  core::paranoid::CheckIntervalReject(a, far_away, config);
  EXPECT_EQ(violations, 0);  // correct decisions pass silently

  core::paranoid::CheckIntervalAccept(a, far_away, config);
  EXPECT_EQ(violations, 1);
  EXPECT_EQ(last_dump.find("CONSERVATIVENESS VIOLATION"), 0u);
  EXPECT_NE(last_dump.find("interval_approx"), std::string::npos);

  core::paranoid::CheckIntervalReject(a, overlapping, config);
  EXPECT_EQ(violations, 2);
  core::paranoid::SetViolationHandlerForTest(nullptr);
}

}  // namespace
}  // namespace hasj
