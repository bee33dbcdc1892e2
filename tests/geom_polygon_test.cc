#include "geom/polygon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/generator.h"
#include "tests/test_seed.h"

namespace hasj::geom {
namespace {

Polygon UnitSquare() {
  return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(PolygonTest, BoundsCached) {
  const Polygon p({{1, 2}, {5, 2}, {3, 7}});
  EXPECT_EQ(p.Bounds(), Box(1, 2, 5, 7));
}

TEST(PolygonTest, SignedAreaOrientation) {
  const Polygon ccw = UnitSquare();
  EXPECT_DOUBLE_EQ(ccw.SignedArea(), 1.0);
  EXPECT_TRUE(ccw.IsCcw());
  Polygon cw = ccw;
  cw.Reverse();
  EXPECT_DOUBLE_EQ(cw.SignedArea(), -1.0);
  EXPECT_FALSE(cw.IsCcw());
  EXPECT_DOUBLE_EQ(cw.Area(), 1.0);
}

TEST(PolygonTest, EdgeWrapsAround) {
  const Polygon p = UnitSquare();
  const Segment last = p.edge(3);
  EXPECT_EQ(last.a, (Point{0, 1}));
  EXPECT_EQ(last.b, (Point{0, 0}));
}

TEST(PolygonTest, ConcaveArea) {
  // L-shape: 3x3 square minus 2x2 notch = 5.
  const Polygon l({{0, 0}, {3, 0}, {3, 1}, {1, 1}, {1, 3}, {0, 3}});
  EXPECT_DOUBLE_EQ(l.Area(), 5.0);
}

TEST(PolygonValidateTest, AcceptsTriangle) {
  EXPECT_TRUE(Polygon({{0, 0}, {1, 0}, {0, 1}}).Validate().ok());
}

TEST(PolygonValidateTest, RejectsTooFewVertices) {
  EXPECT_FALSE(Polygon({{0, 0}, {1, 0}}).Validate().ok());
  EXPECT_FALSE(Polygon(std::vector<Point>{}).Validate().ok());
}

TEST(PolygonValidateTest, RejectsDuplicateConsecutive) {
  EXPECT_FALSE(Polygon({{0, 0}, {0, 0}, {1, 0}, {0, 1}}).Validate().ok());
  // Closing duplicate (last == first) is also consecutive via wraparound.
  EXPECT_FALSE(Polygon({{0, 0}, {1, 0}, {0, 1}, {0, 0}}).Validate().ok());
}

TEST(PolygonValidateTest, RejectsZeroArea) {
  EXPECT_FALSE(Polygon({{0, 0}, {1, 1}, {2, 2}}).Validate().ok());
}

TEST(PolygonValidateTest, RejectsNonFinite) {
  EXPECT_FALSE(
      Polygon({{0, 0}, {1, 0}, {0, std::numeric_limits<double>::infinity()}})
          .Validate()
          .ok());
}

// Chain boxes and the edge visitor, against flat scans of the vertices.

constexpr int kChainSizes[] = {3, 31, 32, 33, 64, 65, 1000, 4397};

// Blobs and snakes of every size in kChainSizes (snakes have at least 8
// vertices, and an even count).
std::vector<Polygon> ChainTestPolygons(uint64_t seed) {
  Rng rng(seed);
  std::vector<Polygon> out;
  for (const int n : kChainSizes) {
    out.push_back(data::GenerateBlobPolygon(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, rng.Uniform(1, 6), n, 0.6,
        rng.Next()));
    out.push_back(data::GenerateSnakePolygon(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, rng.Uniform(1, 6),
        std::max(n, 8), 0.3, rng.Next()));
  }
  return out;
}

// Box of vertices first..last, both inclusive, where index size() is
// vertex 0.
Box VertexRangeBox(const Polygon& p, size_t first, size_t last) {
  Box box;
  for (size_t i = first; i <= last; ++i) box.Extend(p.vertex(i % p.size()));
  return box;
}

void ExpectChainBoxes(const Polygon& p) {
  const size_t n = p.size();
  const size_t k = Polygon::kChainEdges;
  ASSERT_EQ(p.chain_count(), n <= k ? 0 : (n + k - 1) / k) << "n " << n;
  Box all;
  for (size_t j = 0; j < p.chain_count(); ++j) {
    EXPECT_EQ(p.chain_box(j),
              VertexRangeBox(p, j * k, std::min(j * k + k, n)))
        << "n " << n << " chain " << j;
    all.Extend(p.chain_box(j));
  }
  if (p.chain_count() > 0) {
    EXPECT_EQ(all, p.Bounds());
  }
}

TEST(PolygonChainBoxTest, BoxesBoundTheirChainsWithClosingVertex) {
  const uint64_t seed = TestSeed(811);
  SCOPED_TRACE(SeedTrace(seed));
  for (const Polygon& p : ChainTestPolygons(seed)) ExpectChainBoxes(p);
}

TEST(PolygonChainBoxTest, CopyMoveAndReverseKeepBoxes) {
  for (const Polygon& original : ChainTestPolygons(812)) {
    const std::vector<Point> ring(original.vertices().begin(),
                                  original.vertices().end());
    Polygon copy = original;
    EXPECT_TRUE(std::ranges::equal(copy.vertices(), ring));
    ExpectChainBoxes(copy);

    Polygon moved = std::move(copy);
    EXPECT_TRUE(std::ranges::equal(moved.vertices(), ring));
    ExpectChainBoxes(moved);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.size(), 0u);
    EXPECT_EQ(copy.chain_count(), 0u);
    EXPECT_TRUE(copy.vertices().empty());

    Polygon assigned;
    assigned = std::move(moved);
    EXPECT_TRUE(std::ranges::equal(assigned.vertices(), ring));
    ExpectChainBoxes(assigned);
    EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.chain_count(), 0u);

    // Reverse rebuilds the boxes over the new vertex order; twice restores.
    assigned.Reverse();
    std::vector<Point> reversed = ring;
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_TRUE(std::ranges::equal(assigned.vertices(), reversed));
    ExpectChainBoxes(assigned);
    EXPECT_EQ(assigned.Bounds(), original.Bounds());
    assigned.Reverse();
    EXPECT_TRUE(std::ranges::equal(assigned.vertices(), ring));
    ExpectChainBoxes(assigned);
  }
}

std::vector<Segment> FlatEdgesNear(const Polygon& p, const Box& window) {
  std::vector<Segment> out;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p.edge(i).Bounds().Intersects(window)) out.push_back(p.edge(i));
  }
  return out;
}

std::vector<Segment> VisitedEdges(const Polygon& p, const Box& window) {
  std::vector<Segment> out;
  ForEachEdgeNear(p, window, [&out](const Segment& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

bool SameEdges(const std::vector<Segment>& a, const std::vector<Segment>& b) {
  return std::ranges::equal(a, b, [](const Segment& s, const Segment& t) {
    return s.a == t.a && s.b == t.b;
  });
}

// Windows that probe every comparison of the chain and edge tests: random
// boxes, zero-width and zero-height lines through vertices, points and
// corner-anchored boxes at each chain's closing vertex, boxes outside the
// MBR, one covering everything, and windows expanded by a distance.
std::vector<Box> ProbeWindows(const Polygon& p, Rng* rng) {
  const Box b = p.Bounds();
  std::vector<Box> out;
  for (int k = 0; k < 40; ++k) {
    const double x0 = rng->Uniform(b.min_x - 1, b.max_x + 1);
    const double y0 = rng->Uniform(b.min_y - 1, b.max_y + 1);
    const double w = rng->Uniform(0, b.Width() * 0.4);
    const double h = rng->Uniform(0, b.Height() * 0.4);
    out.emplace_back(x0, y0, x0 + w, y0 + h);
    out.push_back(out.back().Expanded(rng->Uniform(0, 1.5)));
  }
  for (size_t i = 0; i < p.size(); i += 7) {
    const Point v = p.vertex(i);
    out.emplace_back(v.x, b.min_y - 1, v.x, b.max_y + 1);
    out.emplace_back(b.min_x - 1, v.y, b.max_x + 1, v.y);
    out.emplace_back(v.x, v.y, b.max_x + 1, v.y);  // a point-location ray
  }
  for (size_t end = Polygon::kChainEdges; end < p.size() + Polygon::kChainEdges;
       end += Polygon::kChainEdges) {
    const Point v = p.vertex(std::min(end, p.size()) % p.size());
    out.emplace_back(v.x, v.y, v.x, v.y);
    out.emplace_back(v.x, v.y, v.x + 0.5, v.y + 0.5);
    out.emplace_back(v.x - 0.5, v.y, v.x, v.y + 0.5);
    out.emplace_back(v.x - 0.5, v.y - 0.5, v.x, v.y);
    out.emplace_back(v.x, v.y - 0.5, v.x + 0.5, v.y);
  }
  out.emplace_back(b.max_x + 0.1, b.min_y, b.max_x + 1, b.max_y);
  out.emplace_back(b.min_x - 1, b.max_y + 0.1, b.max_x, b.max_y + 1);
  out.push_back(b);
  out.push_back(b.Expanded(1.0));
  out.push_back(Box::Empty());
  return out;
}

TEST(ForEachEdgeNearTest, MatchesFlatBoxScanInContentAndOrder) {
  const uint64_t seed = TestSeed(813);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (const Polygon& p : ChainTestPolygons(seed)) {
    for (const Box& w : ProbeWindows(p, &rng)) {
      ASSERT_TRUE(SameEdges(VisitedEdges(p, w), FlatEdgesNear(p, w)))
          << "n " << p.size() << " window " << ToString(w);
    }
  }
}

TEST(ForEachEdgeNearTest, EarlyStopYieldsAPrefix) {
  Rng rng(814);
  for (const Polygon& p : ChainTestPolygons(814)) {
    for (const Box& w : ProbeWindows(p, &rng)) {
      const std::vector<Segment> full = FlatEdgesNear(p, w);
      const size_t stop =
          full.empty() ? 0
                       : static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(full.size()) - 1));
      std::vector<Segment> seen;
      ForEachEdgeNear(p, w, [&](const Segment& e) {
        seen.push_back(e);
        return seen.size() <= stop;
      });
      const size_t want = full.empty() ? 0 : stop + 1;
      ASSERT_EQ(seen.size(), want) << "n " << p.size();
      EXPECT_TRUE(SameEdges(
          seen, std::vector<Segment>(full.begin(), full.begin() + want)));
    }
  }
}

}  // namespace
}  // namespace hasj::geom
