// Point location through chain boxes: algo::LocatePoint visits only the
// edges whose box meets the ray from p (geom::ForEachEdgeNear), and must
// give exactly the answer of the flat crossing-number loop over every
// edge. That loop is kept here as the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/point_in_polygon.h"
#include "common/random.h"
#include "data/generator.h"
#include "geom/predicates.h"
#include "tests/test_seed.h"

namespace hasj::algo {
namespace {

using geom::Point;
using geom::Polygon;

// The flat loop LocatePoint ran before chain boxes: every edge, in ring
// order starting from the closing edge.
PointLocation FlatLocatePoint(Point p, const Polygon& polygon) {
  if (!polygon.Bounds().Contains(p)) return PointLocation::kOutside;
  bool inside = false;
  const size_t n = polygon.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point a = polygon.vertex(j);
    const Point b = polygon.vertex(i);
    if (geom::OnSegment(a, b, p)) return PointLocation::kBoundary;
    if (EdgeCrossesRayRight(a, b, p)) inside = !inside;
  }
  return inside ? PointLocation::kInside : PointLocation::kOutside;
}

// Points that stress every skip rule: each vertex, edge midpoints and
// points just off them, points level with a vertex on either side of it,
// points on the borders of each chain box, and random points inside and
// outside the MBR. Huge polygons get every stride-th vertex and chain.
std::vector<Point> ProbePoints(const Polygon& poly, Rng* rng) {
  std::vector<Point> out;
  const geom::Box b = poly.Bounds();
  const size_t stride = std::max<size_t>(1, poly.size() / 1000);
  for (size_t v = 0; v < poly.size(); v += stride) {
    const Point p = poly.vertex(v);
    out.push_back(p);
    const geom::Segment e = poly.edge(v);
    out.push_back((e.a + e.b) / 2.0);
    out.push_back(e.a + (e.b - e.a) * 0.25 + Point{0.0, 1e-9});
    out.push_back({p.x - rng->Uniform(0, b.Width()), p.y});
    out.push_back({p.x + rng->Uniform(0, b.Width()), p.y});
    out.push_back({p.x, p.y + 1e-12});
  }
  for (size_t j = 0; j < poly.chain_count(); j += stride) {
    const geom::Box c = poly.chain_box(j);
    for (const double t : {0.0, 0.3, 1.0}) {
      const double x = c.min_x + t * (c.max_x - c.min_x);
      const double y = c.min_y + t * (c.max_y - c.min_y);
      out.push_back({x, c.min_y});
      out.push_back({x, c.max_y});
      out.push_back({c.min_x, y});
      out.push_back({c.max_x, y});
    }
  }
  for (int k = 0; k < 300; ++k) {
    out.push_back({rng->Uniform(b.min_x - 1, b.max_x + 1),
                   rng->Uniform(b.min_y - 1, b.max_y + 1)});
  }
  return out;
}

void ExpectMatchesFlat(const Polygon& poly, Rng* rng) {
  for (const Point& p : ProbePoints(poly, rng)) {
    ASSERT_EQ(LocatePoint(p, poly), FlatLocatePoint(p, poly))
        << "n " << poly.size() << " point (" << p.x << "," << p.y << ")";
  }
}

TEST(PointLocatorTest, MatchesLocatePointOnSquare) {
  const Polygon sq({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  EXPECT_EQ(LocatePoint({2, 2}, sq), PointLocation::kInside);
  EXPECT_EQ(LocatePoint({5, 2}, sq), PointLocation::kOutside);
  EXPECT_EQ(LocatePoint({2, 0}, sq), PointLocation::kBoundary);
  EXPECT_EQ(LocatePoint({0, 0}, sq), PointLocation::kBoundary);
  EXPECT_EQ(LocatePoint({4, 2}, sq), PointLocation::kBoundary);
  Rng rng(400);
  ExpectMatchesFlat(sq, &rng);
}

class PointLocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointLocatorPropertyTest, EquivalentToLocatePointOnBlobs) {
  const uint64_t seed = TestSeed(GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (const int n : {3, 31, 32, 33, 64, 65, 300, 1000}) {
    const Polygon poly = data::GenerateBlobPolygon(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, rng.Uniform(1, 6), n, 0.6,
        rng.Next());
    ExpectMatchesFlat(poly, &rng);
  }
}

TEST_P(PointLocatorPropertyTest, EquivalentToLocatePointOnSnakes) {
  const uint64_t seed = TestSeed(GetParam() ^ 0x77);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (const int n : {8, 32, 34, 64, 66, 600, 1000}) {
    const Polygon poly = data::GenerateSnakePolygon(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, rng.Uniform(1, 6), n, 0.3,
        rng.Next());
    ExpectMatchesFlat(poly, &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointLocatorPropertyTest,
                         ::testing::Values(401, 402, 403));

TEST(PointLocatorTest, HugePolygonStillExact) {
  // LANDC's largest polygon size, and a 20k-vertex snake: each probe
  // visits a few of hundreds of chains.
  Rng rng(10);
  ExpectMatchesFlat(data::GenerateBlobPolygon({0, 0}, 10, 4397, 0.5, 8), &rng);
  ExpectMatchesFlat(data::GenerateSnakePolygon({0, 0}, 10, 20000, 0.2, 9),
                    &rng);
}

}  // namespace
}  // namespace hasj::algo
