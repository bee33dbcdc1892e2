// The run-pair engine (algo::AppendEdgeRuns, MeetingRunEdgePairs,
// RunPairIntersect) against the brute pair loop over every edge, on
// polygons around the 32-edge chain size, on crossings and touches placed
// exactly at run boundaries, and on the snake generator's close-parallel
// pairs. Whenever the engine reports no meeting run pair, the boundaries
// must not intersect.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "algo/segment_tests.h"
#include "common/random.h"
#include "data/generator.h"
#include "tests/test_seed.h"

namespace hasj::algo {
namespace {

using geom::Point;
using geom::Polygon;
using geom::Segment;

constexpr size_t kChain = Polygon::kChainEdges;

std::vector<Segment> Edges(const Polygon& p) {
  std::vector<Segment> out;
  for (size_t i = 0; i < p.size(); ++i) out.push_back(p.edge(i));
  return out;
}

// The testers' exact step on one pair: both sides clipped into runs over
// MBR(P) ∩ MBR(Q), then the engine.
struct RunPairOutcome {
  bool cross = false;
  int64_t edge_pairs = 0;
};

RunPairOutcome RunPairs(const Polygon& p, const Polygon& q) {
  if (!p.Bounds().Intersects(q.Bounds())) return {};
  const geom::Box window = p.Bounds().Intersection(q.Bounds());
  std::vector<Segment> ep, eq;
  std::vector<EdgeRun> rp, rq;
  AppendEdgeRuns(p, window, &ep, &rp);
  AppendEdgeRuns(q, window, &eq, &rq);
  RunPairOutcome out;
  out.edge_pairs = MeetingRunEdgePairs(rp, rq);
  out.cross = RunPairIntersect(ep, rp, eq, rq, out.edge_pairs);
  return out;
}

// Checks the engine against the brute loop over every edge of both
// polygons; returns the engine's outcome.
RunPairOutcome ExpectMatchesBrute(const Polygon& p, const Polygon& q) {
  const bool want = BruteRedBlueIntersect(Edges(p), Edges(q));
  const RunPairOutcome got = RunPairs(p, q);
  EXPECT_EQ(got.cross, want);
  if (got.edge_pairs == 0) {
    EXPECT_FALSE(want);
  }
  return got;
}

Polygon Translated(const Polygon& p, double dx, double dy) {
  std::vector<Point> v(p.vertices().begin(), p.vertices().end());
  for (Point& x : v) x = {x.x + dx, x.y + dy};
  return Polygon(std::move(v));
}

// A rectangle [0, n] x [-1, 0] whose top side is split into n unit edges,
// so vertex k is (k, 0) for k <= n and the chain boundaries fall on
// vertices (32, 0), (64, 0), ...; every coordinate is exact.
Polygon Strip(int n) {
  std::vector<Point> v;
  for (int k = 0; k <= n; ++k) v.push_back({static_cast<double>(k), 0.0});
  v.push_back({static_cast<double>(n), -1.0});
  v.push_back({0.0, -1.0});
  return Polygon(std::move(v));
}

TEST(AppendEdgeRunsTest, OneRunPerChainWithItsEdgesAndClippedBox) {
  for (const int n : {31, 32, 33, 64, 65}) {
    SCOPED_TRACE(n);
    const Polygon p = data::GenerateBlobPolygon({0, 0}, 1.0, n, 0.3, 41);
    std::vector<Segment> edges;
    std::vector<EdgeRun> runs;
    AppendEdgeRuns(p, p.Bounds(), &edges, &runs);
    ASSERT_EQ(edges.size(), p.size());
    ASSERT_EQ(runs.size(), (p.size() + kChain - 1) / kChain);
    for (size_t j = 0; j < runs.size(); ++j) {
      EXPECT_EQ(runs[j].begin, j * kChain);
      EXPECT_EQ(runs[j].end, std::min((j + 1) * kChain, p.size()));
      for (uint32_t i = runs[j].begin; i < runs[j].end; ++i) {
        EXPECT_TRUE(runs[j].box.Contains(edges[i].Bounds()));
      }
    }
    // A window over the left half: each run's box is clipped to it.
    geom::Box half = p.Bounds();
    half.max_x = 0.5 * (half.min_x + half.max_x);
    edges.clear();
    runs.clear();
    AppendEdgeRuns(p, half, &edges, &runs);
    for (const EdgeRun& run : runs) {
      EXPECT_LT(run.begin, run.end);
      EXPECT_TRUE(half.Contains(run.box));
    }
  }
}

TEST(RunPairIntersectTest, MatchesBruteAroundTheChainSize) {
  const uint64_t seed = TestSeed(5101);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (const int np : {31, 32, 33, 64, 65}) {
    for (const int nq : {31, 32, 33, 64, 65}) {
      for (int iter = 0; iter < 12; ++iter) {
        const Polygon p = data::GenerateBlobPolygon(
            {0, 0}, 1.0, np, rng.Uniform(0.1, 0.8), rng.Next());
        const Polygon q = data::GenerateBlobPolygon(
            {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)},
            rng.Uniform(0.3, 1.5), nq, rng.Uniform(0.1, 0.8), rng.Next());
        SCOPED_TRACE(testing::Message() << np << " x " << nq << " iter "
                                        << iter);
        ExpectMatchesBrute(p, q);
        ExpectMatchesBrute(q, p);
      }
    }
  }
}

TEST(RunPairIntersectTest, CrossingAtAChainsClosingVertex) {
  const Polygon strip = Strip(64);  // chains end at (32, 0) and (64, 0)
  // A triangle whose edge passes exactly through (32, 0), the vertex where
  // chain 0 ends and chain 1 begins.
  const Polygon through32({{31.5, -0.5}, {32.5, 0.5}, {33.0, 1.0}});
  EXPECT_TRUE(ExpectMatchesBrute(strip, through32).cross);
  // The same through (64, 0), where chain 1 ends and chain 2 (the strip's
  // short sides) begins.
  const Polygon through64({{63.5, -0.5}, {64.5, 0.5}, {65.0, 1.0}});
  EXPECT_TRUE(ExpectMatchesBrute(strip, through64).cross);
  // And through vertex 0, the end vertex of the ring's last chain.
  const Polygon through0({{-0.5, -0.5}, {0.5, 0.5}, {1.0, 2.0}});
  EXPECT_TRUE(ExpectMatchesBrute(strip, through0).cross);
  EXPECT_TRUE(ExpectMatchesBrute(through0, strip).cross);
}

TEST(RunPairIntersectTest, CollinearOverlapSpanningARunBoundary) {
  const Polygon strip = Strip(64);
  // One edge on y = 0 from x = 30.5 to 33.5: it overlaps edges 30..33 of
  // the strip, two in chain 0 and two in chain 1.
  const Polygon lid({{30.5, 0.0}, {33.5, 0.0}, {32.0, 2.0}});
  EXPECT_TRUE(ExpectMatchesBrute(strip, lid).cross);
  EXPECT_TRUE(ExpectMatchesBrute(lid, strip).cross);
  // Lifted by a hair the lid shares no point with the strip.
  const Polygon lifted({{30.5, 1e-9}, {33.5, 1e-9}, {32.0, 2.0}});
  EXPECT_FALSE(ExpectMatchesBrute(strip, lifted).cross);
}

TEST(RunPairIntersectTest, TouchExactlyAtARunBoxCorner) {
  // The strip's corner (64, 0) is the corner of chain 1's box and of
  // chain 2's; a square below-right of it meets the strip there only, so
  // the window, and every clipped run box, is that one point.
  const Polygon strip = Strip(64);
  const Polygon corner({{64, 0}, {65, 0}, {65, 1}, {64, 1}});
  const RunPairOutcome touch = ExpectMatchesBrute(strip, corner);
  EXPECT_TRUE(touch.cross);
  EXPECT_GT(touch.edge_pairs, 0);
  // Moved off by a hair along x, the MBRs no longer meet.
  EXPECT_FALSE(ExpectMatchesBrute(strip, Translated(corner, 1e-9, 0)).cross);
  // Two squares touching corner to corner: one run each.
  const Polygon a({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_TRUE(ExpectMatchesBrute(a, Translated(a, 1, 1)).cross);
}

TEST(RunPairIntersectTest, SnakePairsMatchBrute) {
  const uint64_t seed = TestSeed(5102);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  int pairs = 0;
  int crossing = 0;
  int run_box_rejects = 0;
  int swept = 0;
  for (int iter = 0; iter < 48; ++iter) {
    // Every eighth snake is long enough that its close-parallel copy
    // exceeds kBruteMaxEdgePairs and takes the sweep.
    const int n = static_cast<int>(iter % 8 == 0 ? rng.UniformInt(1500, 2500)
                                                 : rng.UniformInt(40, 420));
    const Polygon snake = data::GenerateSnakePolygon(
        {0, 0}, 10, n, rng.Uniform(0.05, 0.5), rng.Next());
    // A close-parallel copy (the generator's hard case for every filter)
    // and an independent snake whose MBR may overlap only a corner.
    const double angle = rng.Uniform(0.0, 2.0 * std::numbers::pi);
    const double shift = rng.Uniform(0.005, 0.4);
    const Polygon moved = Translated(snake, shift * std::cos(angle),
                                     shift * std::sin(angle));
    const Polygon other = data::GenerateSnakePolygon(
        {rng.Uniform(-15, 15), rng.Uniform(-15, 15)}, 10,
        static_cast<int>(rng.UniformInt(40, 420)), rng.Uniform(0.05, 0.5),
        rng.Next());
    for (const Polygon* q : {&moved, &other}) {
      SCOPED_TRACE(testing::Message() << "iter " << iter);
      if (!snake.Bounds().Intersects(q->Bounds())) continue;
      const RunPairOutcome got = ExpectMatchesBrute(snake, *q);
      ++pairs;
      crossing += got.cross ? 1 : 0;
      run_box_rejects += got.edge_pairs == 0 ? 1 : 0;
      swept += got.edge_pairs > kBruteMaxEdgePairs ? 1 : 0;
    }
  }
  // The corpus reaches every branch of the engine.
  EXPECT_GT(crossing, 0);
  EXPECT_LT(crossing + run_box_rejects, pairs);
  EXPECT_GT(run_box_rejects, 0);
  EXPECT_GT(swept, 0);
}

}  // namespace
}  // namespace hasj::algo
