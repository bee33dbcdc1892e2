// Property-based differential suite for the raster-interval secondary
// filter (filter/interval_approx, DESIGN.md §12): across thousands of
// seeded random pairs, at two grid resolutions, an interval verdict must
// never contradict the exact predicate —
//
//   kHit  ⇒ algo::PolygonsIntersect(a, b) is true,
//   kMiss ⇒ algo::PolygonsIntersect(a, b) is false,
//
// with kInconclusive always legal. The same holds when dataset-load fault
// injection degrades a random subset of objects to unapproximated, and the
// decided fraction is reported so a silently-inconclusive filter would be
// caught. Seeds come from tests/test_seed.h: set HASJ_TEST_SEED to replay.
//
// The IntervalOracle suite pins the builder's output itself: its `all`,
// `full` and `approximated` must equal ReferenceObjectIntervals — the
// straightforward builder with one LocatePoint per run and one HilbertIndex
// per marked cell — on WATER, selection-sized queries, long snakes,
// degenerate and grid-aligned shapes, and every grid resolution. The
// parallel build must equal the serial one object for object.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "algo/point_in_polygon.h"
#include "algo/polygon_intersect.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/status.h"
#include "data/catalogs.h"
#include "data/generator.h"
#include "filter/interval_approx.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/segment.h"
#include "glsim/pixel_snap.h"
#include "glsim/raster.h"
#include "tests/test_seed.h"

namespace hasj {
namespace {

using filter::BuildIntervalApprox;
using filter::CellInterval;
using filter::HilbertIndex;
using filter::IntervalApprox;
using filter::IntervalApproxConfig;
using filter::IntervalVerdict;
using filter::ObjectIntervals;
using geom::Point;
using geom::Polygon;

struct PairSample {
  Polygon a;
  Polygon b;
};

// Random near-or-overlapping pair, mirroring property_differential_test:
// centers at most a few radii apart so the corpus is rich in crossing
// boundaries, close-but-disjoint gaps, containment, and far misses.
PairSample MakePair(Rng& rng) {
  const Point ca{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
  const Point cb{ca.x + rng.Uniform(-2.0, 2.0), ca.y + rng.Uniform(-2.0, 2.0)};
  const auto make = [&](Point c) {
    const double radius = rng.Uniform(0.3, 1.5);
    if (rng.Bernoulli(0.3)) {
      // Snake generation needs at least 8 vertices (two offset chains).
      const int vertices = static_cast<int>(rng.UniformInt(8, 48));
      return data::GenerateSnakePolygon(c, radius, vertices, 0.25, rng.Next());
    }
    const int vertices = static_cast<int>(rng.UniformInt(3, 48));
    return data::GenerateBlobPolygon(c, radius, vertices, 0.6, rng.Next());
  };
  return {make(ca), make(cb)};
}

std::vector<PairSample> MakeCorpus(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<PairSample> corpus;
  corpus.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) corpus.push_back(MakePair(rng));
  return corpus;
}

constexpr int kCorpusSize = 5000;

// Per-pair build: each pair gets its own frame (the union of the two MBRs,
// like a join over two single-object datasets), so every pair exercises a
// fresh grid geometry instead of one shared frame.
struct DecisionTally {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inconclusive = 0;
};

// void so the gtest ASSERT macros are usable; results come back in *tally.
void CheckCorpus(const std::vector<PairSample>& corpus, int grid_bits,
                 FaultInjector* faults, DecisionTally* tally) {
  for (size_t i = 0; i < corpus.size(); ++i) {
    const PairSample& sample = corpus[i];
    geom::Box frame = sample.a.Bounds();
    frame.Extend(sample.b.Bounds());
    IntervalApproxConfig config;
    config.grid_bits = grid_bits;
    config.faults = faults;
    const std::vector<Polygon> polygons = {sample.a, sample.b};
    const Result<IntervalApprox> built =
        BuildIntervalApprox(polygons, frame, config);
    ASSERT_TRUE(built.ok()) << "pair " << i << ": "
                            << built.status().message();
    const IntervalVerdict verdict =
        DecidePair(built.value().object(0), built.value().object(1));
    switch (verdict) {
      case IntervalVerdict::kHit:
        ASSERT_TRUE(algo::PolygonsIntersect(sample.a, sample.b))
            << "bad TRUE HIT on pair " << i << " at grid_bits " << grid_bits;
        ++tally->hits;
        break;
      case IntervalVerdict::kMiss:
        ASSERT_FALSE(algo::PolygonsIntersect(sample.a, sample.b))
            << "bad TRUE MISS on pair " << i << " at grid_bits " << grid_bits;
        ++tally->misses;
        break;
      case IntervalVerdict::kInconclusive:
        ++tally->inconclusive;
        break;
    }
  }
}

TEST(IntervalDifferential, VerdictsNeverContradictExactPredicate) {
  const uint64_t seed = TestSeed(1801);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize);
  for (const int grid_bits : {4, 7}) {
    DecisionTally tally;
    CheckCorpus(corpus, grid_bits, nullptr, &tally);
    if (HasFatalFailure()) return;
    // Guard against a filter that degenerates into always-inconclusive:
    // the corpus mixes far misses and deep overlaps, so at any resolution
    // a healthy filter decides a sizable share of pairs outright.
    EXPECT_GT(tally.hits, 0) << "grid_bits " << grid_bits;
    EXPECT_GT(tally.misses, 0) << "grid_bits " << grid_bits;
    EXPECT_GT(tally.hits + tally.misses, kCorpusSize / 4)
        << "grid_bits " << grid_bits << " decided too little ("
        << tally.inconclusive << " inconclusive)";
  }
}

TEST(IntervalDifferential, FaultDegradationIsNeverWrong) {
  // With kDatasetLoad faults firing on ~30% of object builds, degraded
  // objects become unapproximated (always inconclusive); every pair that
  // is still decided must remain consistent with the exact predicate.
  const uint64_t seed = TestSeed(1802);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize / 2);
  for (const int grid_bits : {4, 7}) {
    FaultInjector faults(seed ^ static_cast<uint64_t>(grid_bits));
    faults.SetPlan(FaultSite::kDatasetLoad, FaultPlan::Probability(0.3));
    DecisionTally tally;
    CheckCorpus(corpus, grid_bits, &faults, &tally);
    if (HasFatalFailure()) return;
    EXPECT_GT(faults.fired(FaultSite::kDatasetLoad), 0);
    // Faults only remove decisions, they never flip them — some pairs
    // escape injection entirely, so decisions still happen.
    EXPECT_GT(tally.hits + tally.misses, 0) << "grid_bits " << grid_bits;
    EXPECT_GT(tally.inconclusive, 0) << "grid_bits " << grid_bits;
  }
}

TEST(IntervalDifferential, QueryApproximationMatchesDatasetBuild) {
  // ApproximateObject (the ad-hoc query path used by the selection
  // pipelines) must agree with the batch builder on the same grid: same
  // decision against every dataset object.
  const uint64_t seed = TestSeed(1803);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, 500);
  for (const int grid_bits : {4, 7}) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      const PairSample& sample = corpus[i];
      geom::Box frame = sample.a.Bounds();
      frame.Extend(sample.b.Bounds());
      IntervalApproxConfig config;
      config.grid_bits = grid_bits;
      const std::vector<Polygon> polygons = {sample.a, sample.b};
      const Result<IntervalApprox> built =
          BuildIntervalApprox(polygons, frame, config);
      ASSERT_TRUE(built.ok());
      const filter::ObjectIntervals adhoc =
          built.value().ApproximateObject(sample.b);
      EXPECT_EQ(DecidePair(built.value().object(0), adhoc),
                DecidePair(built.value().object(0), built.value().object(1)))
          << "pair " << i << " at grid_bits " << grid_bits;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle builder. Same grid mapping, scratch cap and PARTIAL step as
// filter/interval_approx.cc, but each run of non-PARTIAL cells is decided by
// a full LocatePoint at its first cell's centre, and the lists come from
// sorting every marked cell by HilbertIndex.

namespace reference {

constexpr int64_t kMaxScratchCells = int64_t{1} << 22;
constexpr double kEnumWidth = 1e-7;

struct GridFrame {
  geom::Box frame;
  int n = 0;
  double cell_w = 0.0;
  double cell_h = 0.0;
  double inv_cell_w = 0.0;
  double inv_cell_h = 0.0;

  double GridX(double x) const { return (x - frame.min_x) * inv_cell_w; }
  double GridY(double y) const { return (y - frame.min_y) * inv_cell_h; }
  geom::Box CellBox(int gx, int gy) const {
    return geom::Box(frame.min_x + gx * cell_w, frame.min_y + gy * cell_h,
                     frame.min_x + (gx + 1) * cell_w,
                     frame.min_y + (gy + 1) * cell_h);
  }
};

GridFrame MakeGridFrame(const geom::Box& frame, int grid_bits) {
  GridFrame gf;
  gf.frame = frame;
  gf.n = 1 << grid_bits;
  gf.cell_w = frame.Width() / gf.n;
  gf.cell_h = frame.Height() / gf.n;
  gf.inv_cell_w = 1.0 / gf.cell_w;
  gf.inv_cell_h = 1.0 / gf.cell_h;
  return gf;
}

std::pair<int, int> CellRange(double g0, double g1, int n) {
  const double tol = 1e-12 * (std::fabs(g0) + std::fabs(g1)) + 1e-300;
  const int c0 = glsim::PixelFromCoord(std::ceil(g0 - tol) - 1.0, 0, n - 1);
  const int c1 = glsim::PixelFromCoord(std::floor(g1 + tol), 0, n - 1);
  return {c0, c1};
}

void AppendCell(std::vector<CellInterval>& list, uint32_t h) {
  if (!list.empty() && list.back().hi == h) {
    ++list.back().hi;
  } else {
    list.push_back({h, h + 1});
  }
}

}  // namespace reference

ObjectIntervals ReferenceObjectIntervals(const Polygon& polygon,
                                         const geom::Box& frame,
                                         int grid_bits, int64_t max_bytes) {
  using reference::CellRange;
  const reference::GridFrame gf = reference::MakeGridFrame(frame, grid_bits);
  ObjectIntervals out;
  if (polygon.size() == 0) return out;
  const geom::Box& mbr = polygon.Bounds();
  const auto [cx0, cx1] =
      CellRange(gf.GridX(mbr.min_x), gf.GridX(mbr.max_x), gf.n);
  const auto [cy0, cy1] =
      CellRange(gf.GridY(mbr.min_y), gf.GridY(mbr.max_y), gf.n);
  const int vw = cx1 - cx0 + 1;
  const int vh = cy1 - cy0 + 1;
  if (static_cast<int64_t>(vw) * vh > reference::kMaxScratchCells) return out;

  enum : uint8_t { kEmpty = 0, kPartial = 1, kFull = 2 };
  std::vector<uint8_t> cells(static_cast<size_t>(vw) * vh, kEmpty);

  for (size_t e = 0; e < polygon.size(); ++e) {
    const geom::Segment seg = polygon.edge(e);
    const geom::Point la{gf.GridX(seg.a.x) - cx0, gf.GridY(seg.a.y) - cy0};
    const geom::Point lb{gf.GridX(seg.b.x) - cx0, gf.GridY(seg.b.y) - cy0};
    auto emit_row = [&](int c0, int c1, int y) {
      for (int c = c0; c <= c1; ++c) {
        uint8_t& cell = cells[static_cast<size_t>(y) * vw + c];
        if (cell == kPartial) continue;
        if (geom::SegmentIntersectsBox(seg, gf.CellBox(cx0 + c, cy0 + y))) {
          cell = kPartial;
        }
      }
      return false;
    };
    glsim::RasterizeLineAARowSpans(la, lb, reference::kEnumWidth, vw, vh,
                                   emit_row);
  }

  const bool has_interior = polygon.size() >= 3 && polygon.Area() > 0.0;
  if (has_interior) {
    for (int y = 0; y < vh; ++y) {
      uint8_t* row = cells.data() + static_cast<size_t>(y) * vw;
      int x = 0;
      while (x < vw) {
        if (row[x] == kPartial) {
          ++x;
          continue;
        }
        int run_end = x;
        while (run_end < vw && row[run_end] != kPartial) ++run_end;
        const geom::Point probe = gf.CellBox(cx0 + x, cy0 + y).Center();
        if (algo::LocatePoint(probe, polygon) ==
            algo::PointLocation::kInside) {
          std::fill(row + x, row + run_end, uint8_t{kFull});
        }
        x = run_end;
      }
    }
  }

  std::vector<std::pair<uint32_t, uint8_t>> marked;
  for (int y = 0; y < vh; ++y) {
    for (int x = 0; x < vw; ++x) {
      const uint8_t kind = cells[static_cast<size_t>(y) * vw + x];
      if (kind != kEmpty) {
        marked.emplace_back(HilbertIndex(grid_bits, static_cast<uint32_t>(cx0 + x),
                                         static_cast<uint32_t>(cy0 + y)),
                            kind);
      }
    }
  }
  std::sort(marked.begin(), marked.end());
  for (const auto& [h, kind] : marked) {
    reference::AppendCell(out.all, h);
    if (kind == kFull) reference::AppendCell(out.full, h);
  }
  const auto bytes = static_cast<int64_t>(
      (out.all.size() + out.full.size()) * sizeof(CellInterval));
  if (bytes > max_bytes) {
    out.all.clear();
    out.full.clear();
    return out;
  }
  out.approximated = true;
  return out;
}

::testing::AssertionResult SameRuns(const char* name,
                                    const std::vector<CellInterval>& got,
                                    const std::vector<CellInterval>& want) {
  for (size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    if (i >= got.size() || i >= want.size() || got[i].lo != want[i].lo ||
        got[i].hi != want[i].hi) {
      ::testing::AssertionResult failure = ::testing::AssertionFailure();
      failure << name << " differs at run " << i << " of " << got.size()
              << " vs " << want.size();
      if (i < got.size()) {
        failure << ": got [" << got[i].lo << ", " << got[i].hi << ")";
      }
      if (i < want.size()) {
        failure << ", want [" << want[i].lo << ", " << want[i].hi << ")";
      }
      return failure;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameApproximation(const ObjectIntervals& got,
                                             const ObjectIntervals& want) {
  if (got.approximated != want.approximated) {
    return ::testing::AssertionFailure()
           << "approximated " << got.approximated << " vs "
           << want.approximated;
  }
  ::testing::AssertionResult all = SameRuns("all", got.all, want.all);
  if (!all) return all;
  return SameRuns("full", got.full, want.full);
}

// Every object of a dataset build against the oracle, under the same
// per-object byte share the build gives it.
void ExpectBuildMatchesReference(const std::vector<Polygon>& polygons,
                                 const geom::Box& frame, int grid_bits,
                                 const std::string& what,
                                 int64_t budget_bytes = 64 << 20) {
  IntervalApproxConfig config;
  config.grid_bits = grid_bits;
  config.memory_budget_bytes = budget_bytes;
  const Result<IntervalApprox> built =
      BuildIntervalApprox(polygons, frame, config);
  ASSERT_TRUE(built.ok()) << what << ": " << built.status().message();
  const int64_t share = std::max<int64_t>(
      256, config.memory_budget_bytes / static_cast<int64_t>(polygons.size()));
  for (size_t i = 0; i < polygons.size(); ++i) {
    ASSERT_TRUE(SameApproximation(
        built.value().object(i),
        ReferenceObjectIntervals(polygons[i], frame, grid_bits, share)))
        << what << " object " << i << " (" << polygons[i].size()
        << " vertices) at grid_bits " << grid_bits;
  }
}

// Ad-hoc query approximations against the oracle (no byte budget).
void ExpectQueriesMatchReference(const IntervalApprox& approx,
                                 const std::vector<Polygon>& queries,
                                 const std::string& what) {
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(SameApproximation(
        approx.ApproximateObject(queries[i]),
        ReferenceObjectIntervals(queries[i], approx.frame(),
                                 approx.grid_bits(),
                                 std::numeric_limits<int64_t>::max())))
        << what << " query " << i << " at grid_bits " << approx.grid_bits();
  }
}

geom::Box BoundsOf(const std::vector<Polygon>& polygons) {
  geom::Box frame = geom::Box::Empty();
  for (const Polygon& p : polygons) frame.Extend(p.Bounds());
  return frame;
}

Polygon BoxPolygon(double x0, double y0, double x1, double y1) {
  return Polygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

std::vector<Polygon> WaterAtScale005() {
  return data::GenerateDataset(data::WaterProfile(0.05)).polygons();
}

TEST(IntervalOracle, WaterObjectsAndSelectionQueries) {
  const uint64_t seed = TestSeed(1804);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<Polygon> water = WaterAtScale005();
  const geom::Box frame = BoundsOf(water);
  ExpectBuildMatchesReference(water, frame, 10, "WATER");
  if (HasFatalFailure()) return;

  // The water_select query classes: blobs of 16/32/64 vertices whose
  // radius is 1.2%, 3% and 8% of the extent's width. Centres are drawn
  // over the frame grown by one radius, so many queries are clipped by it.
  IntervalApproxConfig config;
  config.grid_bits = 10;
  const Result<IntervalApprox> grid = BuildIntervalApprox({}, frame, config);
  ASSERT_TRUE(grid.ok());
  struct QueryClass {
    double radius_frac;
    int vertices;
  };
  Rng rng(seed);
  for (const QueryClass c : {QueryClass{0.012, 16}, QueryClass{0.03, 32},
                             QueryClass{0.08, 64}}) {
    const double radius = c.radius_frac * frame.Width();
    std::vector<Polygon> queries;
    for (int q = 0; q < 300; ++q) {
      const Point center{
          rng.Uniform(frame.min_x - radius, frame.max_x + radius),
          rng.Uniform(frame.min_y - radius, frame.max_y + radius)};
      queries.push_back(data::GenerateBlobPolygon(center, radius, c.vertices,
                                                  0.3, rng.Next()));
    }
    ExpectQueriesMatchReference(grid.value(), queries,
                                "radius " + std::to_string(c.radius_frac));
    if (HasFatalFailure()) return;
  }
}

TEST(IntervalOracle, RandomPolygonsAtEveryResolution) {
  // Random blobs and snakes at grid_bits 1-4, where a few cells per object
  // make every block orientation occur at every level of the descent, and
  // at 7, 10 and 12. Fewer objects at the fine grids, where the oracle's
  // per-cell sort is slow.
  const uint64_t seed = TestSeed(1805);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, 500);
  std::vector<Polygon> polygons;
  for (const PairSample& sample : corpus) {
    polygons.push_back(sample.a);
    polygons.push_back(sample.b);
  }
  const geom::Box frame = BoundsOf(polygons);
  for (const auto& [grid_bits, count] :
       {std::pair{1, 1000}, std::pair{2, 1000}, std::pair{3, 1000},
        std::pair{4, 1000}, std::pair{7, 1000}, std::pair{10, 200},
        std::pair{12, 30}}) {
    const std::vector<Polygon> subset(polygons.begin(),
                                      polygons.begin() + count);
    ExpectBuildMatchesReference(subset, frame, grid_bits, "random");
    if (HasFatalFailure()) return;
  }
}

TEST(IntervalOracle, LongSnakes) {
  // Snakes of 200-2,000 vertices: many edges straddle each row, so rows
  // hold several runs and the row parity sees long edge lists.
  const uint64_t seed = TestSeed(1806);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  std::vector<Polygon> snakes;
  for (int vertices = 200; vertices <= 2000; vertices += 200) {
    for (int k = 0; k < 3; ++k) {
      const Point center{rng.Uniform(20.0, 80.0), rng.Uniform(20.0, 80.0)};
      snakes.push_back(data::GenerateSnakePolygon(
          center, rng.Uniform(5.0, 30.0), vertices, rng.Uniform(0.1, 0.5),
          rng.Next()));
    }
  }
  const geom::Box frame(0, 0, 100, 100);
  for (const int grid_bits : {7, 10}) {
    ExpectBuildMatchesReference(snakes, frame, grid_bits, "snake");
    if (HasFatalFailure()) return;
  }
  // A 1 KiB share per object: the larger snakes' lists exceed it and opt
  // out, which must happen to the same objects as in the oracle.
  const int64_t budget = static_cast<int64_t>(snakes.size()) * 1024;
  IntervalApproxConfig config;
  config.grid_bits = 10;
  config.memory_budget_bytes = budget;
  const Result<IntervalApprox> budgeted =
      BuildIntervalApprox(snakes, frame, config);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_GT(budgeted.value().stats().unapproximated, 0);
  EXPECT_LT(budgeted.value().stats().unapproximated,
            static_cast<int64_t>(snakes.size()));
  ExpectBuildMatchesReference(snakes, frame, 10, "budgeted snake", budget);
}

TEST(IntervalOracle, DegenerateAndGridAlignedShapes) {
  // Frame [0, 8]^2 at grid_bits 3 has unit cells with borders on the
  // integers and probe heights on the half-integers, both exact in binary;
  // at grid_bits 4 the half-integers become cell borders too.
  const geom::Box frame(0, 0, 8, 8);
  const std::vector<Polygon> shapes = {
      Polygon({{3, 3}}),                          // single vertex
      Polygon({{1, 1}, {6, 6}}),                  // two vertices
      Polygon({{1, 1}, {4, 1}, {7, 1}}),          // collinear
      Polygon({{1, 1}, {7, 1}, {1, 1}}),          // zero-area fold
      Polygon({{1, 1}, {7, 7}, {4, 4}}),          // folded diagonal
      BoxPolygon(1, 1, 7, 7),                     // edges on cell borders
      BoxPolygon(2, 3, 5, 6),
      BoxPolygon(0, 0, 8, 8),                     // the frame itself
      BoxPolygon(1.5, 2.5, 6.5, 5.5),             // edges on probe heights
      BoxPolygon(0.5, 0.5, 7.5, 7.5),             // and through centres
      BoxPolygon(2.5, 1, 5.5, 3.5),
      Polygon({{4, 0.5}, {7.5, 4}, {4, 7.5}, {0.5, 4}}),  // vertices there
      Polygon({{1, 2.5}, {3, 2.5}, {3, 4.5}, {5, 4.5}, {5, 2.5}, {7, 2.5},
               {7, 6.5}, {1, 6.5}}),          // notched, several runs/row
      Polygon({{-2, -2}, {10, -2}, {10, 3.5}, {-2, 3.5}}),  // clipped
      Polygon({{4, -3}, {11, 4}, {4, 11}, {-3, 4}}),        // clipped
  };
  for (const int grid_bits : {1, 2, 3, 4, 5, 7}) {
    ExpectBuildMatchesReference(shapes, frame, grid_bits, "shape");
    if (HasFatalFailure()) return;
    IntervalApproxConfig config;
    config.grid_bits = grid_bits;
    const Result<IntervalApprox> grid = BuildIntervalApprox({}, frame, config);
    ASSERT_TRUE(grid.ok());
    ExpectQueriesMatchReference(grid.value(), shapes, "shape");
    if (HasFatalFailure()) return;
  }
}

TEST(IntervalOracle, FrameFillingSquareIsOneRun) {
  // A square equal to the frame marks every cell, so `all` is the single
  // run [0, 4^bits); its interior is FULL. At grid_bits 12 its 4096^2-cell
  // window exceeds the scratch cap and the object stays unapproximated.
  const geom::Box frame(-1.25, 3.5, 7.75, 12.5);
  const Polygon square =
      BoxPolygon(frame.min_x, frame.min_y, frame.max_x, frame.max_y);
  for (int grid_bits = 1; grid_bits <= 12; ++grid_bits) {
    IntervalApproxConfig config;
    config.grid_bits = grid_bits;
    const Result<IntervalApprox> grid = BuildIntervalApprox({}, frame, config);
    ASSERT_TRUE(grid.ok());
    const ObjectIntervals got = grid.value().ApproximateObject(square);
    if (grid_bits == 12) {
      EXPECT_FALSE(got.approximated);
      continue;
    }
    ASSERT_TRUE(got.approximated) << "grid_bits " << grid_bits;
    ASSERT_EQ(got.all.size(), 1u) << "grid_bits " << grid_bits;
    EXPECT_EQ(got.all[0].lo, 0u);
    EXPECT_EQ(got.all[0].hi, uint32_t{1} << (2 * grid_bits));
    if (grid_bits <= 10) {
      EXPECT_TRUE(SameApproximation(
          got, ReferenceObjectIntervals(square, frame, grid_bits,
                                        std::numeric_limits<int64_t>::max())))
          << "grid_bits " << grid_bits;
    }
  }
}

TEST(IntervalParallelBuildTest, FourWorkersMatchOneOnWater) {
  // Each worker reuses its own scratch from object to object; the result
  // must not depend on which worker built which object.
  const std::vector<Polygon> water = WaterAtScale005();
  const geom::Box frame = BoundsOf(water);
  IntervalApproxConfig config;
  config.num_threads = 1;
  const Result<IntervalApprox> serial =
      BuildIntervalApprox(water, frame, config);
  config.num_threads = 4;
  const Result<IntervalApprox> parallel =
      BuildIntervalApprox(water, frame, config);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel.value().size(), water.size());
  for (size_t i = 0; i < water.size(); ++i) {
    ASSERT_TRUE(SameApproximation(parallel.value().object(i),
                                  serial.value().object(i)))
        << "object " << i;
  }
  EXPECT_EQ(parallel.value().stats().interval_count,
            serial.value().stats().interval_count);
}

}  // namespace
}  // namespace hasj
