#include "algo/polygon_intersect.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algo/segment_tests.h"
#include "common/random.h"
#include "data/generator.h"

namespace hasj::algo {
namespace {

using geom::Point;
using geom::Polygon;

Polygon Square(double x0, double y0, double side) {
  return Polygon(
      {{x0, y0}, {x0 + side, y0}, {x0 + side, y0 + side}, {x0, y0 + side}});
}

TEST(PolygonsIntersectTest, OverlappingSquares) {
  EXPECT_TRUE(PolygonsIntersect(Square(0, 0, 2), Square(1, 1, 2)));
}

TEST(PolygonsIntersectTest, DisjointSquares) {
  EXPECT_FALSE(PolygonsIntersect(Square(0, 0, 1), Square(3, 3, 1)));
  // MBRs overlap but geometries do not (diagonal arrangement of concave Ls).
  const Polygon l1({{0, 0}, {3, 0}, {3, 1}, {1, 1}, {1, 3}, {0, 3}});
  const Polygon small_sq = Square(1.5, 1.5, 1.0);
  EXPECT_TRUE(l1.Bounds().Intersects(small_sq.Bounds()));
  EXPECT_FALSE(PolygonsIntersect(l1, small_sq));
}

TEST(PolygonsIntersectTest, Containment) {
  EXPECT_TRUE(PolygonsIntersect(Square(0, 0, 10), Square(4, 4, 1)));
  EXPECT_TRUE(PolygonsIntersect(Square(4, 4, 1), Square(0, 0, 10)));
}

TEST(PolygonsIntersectTest, EdgeTouch) {
  EXPECT_TRUE(PolygonsIntersect(Square(0, 0, 2), Square(2, 0, 2)));
  EXPECT_TRUE(PolygonsIntersect(Square(0, 0, 2), Square(2, 2, 2)));  // corner
}

TEST(PolygonsIntersectTest, CountersPopulated) {
  IntersectCounters counters;
  // Containment decided by the point-in-polygon step.
  EXPECT_TRUE(PolygonsIntersect(Square(4, 4, 1), Square(0, 0, 10), {},
                                &counters));
  EXPECT_EQ(counters.point_in_polygon_hits, 1);
  EXPECT_EQ(counters.segment_tests, 0);
  // Plus-shaped crossing: neither probe vertex is contained, so the
  // decision reaches the segment test.
  const Polygon horizontal({{0, 1}, {3, 1}, {3, 2}, {0, 2}});
  const Polygon vertical({{1, 0}, {2, 0}, {2, 3}, {1, 3}});
  EXPECT_TRUE(PolygonsIntersect(horizontal, vertical, {}, &counters));
  EXPECT_EQ(counters.segment_tests, 1);
  EXPECT_GT(counters.edges_considered, 0);
}

TEST(BoundariesIntersectTest, IgnoresContainment) {
  // Boundaries of nested squares do not cross.
  EXPECT_FALSE(BoundariesIntersect(Square(0, 0, 10), Square(4, 4, 1)));
  EXPECT_TRUE(BoundariesIntersect(Square(0, 0, 2), Square(1, 1, 2)));
}

// Property: the forced engines (sweep / brute) with and without restricted
// search agree with the unrestricted brute reference on random polygon
// pairs. The default size-picked engine runs brute at these sizes; the
// engine test below crosses kBruteMaxEdgePairs.
class IntersectOptionsTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, bool>> {};

TEST_P(IntersectOptionsTest, AgreesWithBruteUnrestricted) {
  const auto [seed, sweep, restricted] = GetParam();
  hasj::Rng rng(seed);
  SoftwareIntersectOptions reference;
  reference.engine = SegmentEngine::kBrute;
  reference.restricted_search = false;
  SoftwareIntersectOptions options;
  options.engine = sweep ? SegmentEngine::kSweep : SegmentEngine::kBrute;
  options.restricted_search = restricted;

  int hits = 0;
  for (int iter = 0; iter < 80; ++iter) {
    const Polygon a = data::GenerateBlobPolygon(
        {rng.Uniform(0, 8), rng.Uniform(0, 8)}, rng.Uniform(0.5, 3.0),
        static_cast<int>(rng.UniformInt(3, 60)), 0.6, rng.Next());
    const Polygon b = data::GenerateBlobPolygon(
        {rng.Uniform(0, 8), rng.Uniform(0, 8)}, rng.Uniform(0.5, 3.0),
        static_cast<int>(rng.UniformInt(3, 60)), 0.6, rng.Next());
    const bool expected = PolygonsIntersect(a, b, reference);
    EXPECT_EQ(PolygonsIntersect(a, b, options), expected) << "iter " << iter;
    hits += expected;
  }
  // The workload must exercise both outcomes to be meaningful.
  EXPECT_GT(hits, 5);
  EXPECT_LT(hits, 75);
}

std::vector<geom::Segment> AllEdges(const Polygon& p) {
  std::vector<geom::Segment> out;
  for (size_t i = 0; i < p.size(); ++i) out.push_back(p.edge(i));
  return out;
}

Polygon Translated(const Polygon& p, double dx, double dy) {
  std::vector<Point> v(p.vertices().begin(), p.vertices().end());
  for (Point& pt : v) pt = {pt.x + dx, pt.y + dy};
  return Polygon(std::move(v));
}

// Unit normal to the long axis of an elongated polygon (principal axis of
// its vertex cloud).
Point Perpendicular(const Polygon& p) {
  double mx = 0, my = 0;
  for (const Point& v : p.vertices()) {
    mx += v.x;
    my += v.y;
  }
  mx /= static_cast<double>(p.size());
  my /= static_cast<double>(p.size());
  double sxx = 0, syy = 0, sxy = 0;
  for (const Point& v : p.vertices()) {
    sxx += (v.x - mx) * (v.x - mx);
    syy += (v.y - my) * (v.y - my);
    sxy += (v.x - mx) * (v.y - my);
  }
  const double axis = 0.5 * std::atan2(2 * sxy, sxx - syy);
  return {-std::sin(axis), std::cos(axis)};
}

// The default engine picks brute or sweep by |ep| * |eq| against
// kBruteMaxEdgePairs; the blob tests above never leave the brute side.
// This corpus straddles the threshold with both outcomes: snake pairs of
// 200-2,000 vertices shifted across their long axis to just past the last
// crossing shift (close-parallel, no crossing) and just short of it
// (crossing), plus large blob pairs. Each verdict is compared with the
// brute loop over the unrestricted edges.
TEST(SegmentEngineTest, BySizeMatchesUnrestrictedBruteAcrossThreshold) {
  std::vector<std::pair<Polygon, Polygon>> corpus;
  for (const int vertices : {200, 400, 1000, 2000}) {
    const Polygon snake = data::GenerateSnakePolygon(
        {0, 0}, 10, vertices, 0.3, static_cast<uint64_t>(vertices));
    const Point n = Perpendicular(snake);
    const auto crosses = [&](double d) {
      return BruteRedBlueIntersect(
          AllEdges(snake), AllEdges(Translated(snake, d * n.x, d * n.y)));
    };
    // Bisect the shift between a crossing and a non-crossing one.
    double lo = 1e-3, hi = 1e-3;
    while (crosses(hi)) hi *= 2;
    ASSERT_TRUE(crosses(lo));
    for (int step = 0; step < 8; ++step) {
      const double mid = 0.5 * (lo + hi);
      (crosses(mid) ? lo : hi) = mid;
    }
    corpus.emplace_back(snake, Translated(snake, lo * n.x, lo * n.y));
    corpus.emplace_back(snake, Translated(snake, hi * n.x, hi * n.y));
  }
  hasj::Rng rng(31);
  for (int iter = 0; iter < 12; ++iter) {
    const auto blob = [&] {
      return data::GenerateBlobPolygon(
          {rng.Uniform(0, 4), rng.Uniform(0, 4)}, rng.Uniform(1.0, 4.0),
          static_cast<int>(rng.UniformInt(300, 1500)), 0.6, rng.Next());
    };
    Polygon a = blob();
    corpus.emplace_back(std::move(a), blob());
  }

  int seen[2][2] = {};  // [above threshold][boundaries cross]
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& [a, b] = corpus[i];
    const bool expected = BruteRedBlueIntersect(AllEdges(a), AllEdges(b));
    EXPECT_EQ(BoundariesIntersect(a, b), expected) << "pair " << i;
    const geom::Box window = a.Bounds().Intersection(b.Bounds());
    const int64_t product =
        static_cast<int64_t>(EdgesInWindow(a, window).size()) *
        static_cast<int64_t>(EdgesInWindow(b, window).size());
    ++seen[product > kBruteMaxEdgePairs][expected];
  }
  for (const int above : {0, 1}) {
    for (const int cross : {0, 1}) {
      EXPECT_GT(seen[above][cross], 0)
          << "above threshold " << above << ", crossing " << cross;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntersectOptionsTest,
    ::testing::Combine(::testing::Values(11, 12, 13), ::testing::Bool(),
                       ::testing::Bool()));

}  // namespace
}  // namespace hasj::algo
