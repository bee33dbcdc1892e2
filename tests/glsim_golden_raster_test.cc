// Golden-bitmask rasterization tests: in-source expected pixel masks for
// the paper's Figure 3 behaviors and the coverage rules the conservative
// hardware test depends on. Each test renders into a small grid and
// compares against an ASCII-art mask written top row first (highest y
// first, matching how the figures are drawn).
//
//  * diamond-exit ("basic") lines lose pixels — the disappearing-segment
//    behavior of Figure 3(c)/(d) that rules the basic rule out;
//  * anti-aliased width-w lines cover exactly the closed-cell footprint
//    rectangle (Figure 4), the rule Algorithm 3.1's conservativeness
//    rests on;
//  * wide points cover the closed-cell disc (the capsule end caps of the
//    distance test);
//  * polygon fill colors a pixel on a shared edge exactly once across the
//    two polygons (§2.2.3 point sampling, half-open intervals).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "geom/point.h"
#include "glsim/raster.h"

namespace hasj {
namespace {

using geom::Point;

struct Grid {
  int w;
  int h;
  std::vector<int> count;

  Grid(int width, int height)
      : w(width), h(height), count(static_cast<size_t>(width * height), 0) {}

  void Add(int x, int y) {
    ASSERT_TRUE(x >= 0 && x < w && y >= 0 && y < h)
        << "emit outside viewport: " << x << "," << y;
    ++count[static_cast<size_t>(y * w + x)];
  }

  int At(int x, int y) const {
    return count[static_cast<size_t>(y * w + x)];
  }

  // Screen-style rendering: top row (y = h-1) first.
  std::string ToString() const {
    std::string out;
    for (int y = h - 1; y >= 0; --y) {
      for (int x = 0; x < w; ++x) out += At(x, y) > 0 ? '#' : '.';
      out += '\n';
    }
    return out;
  }
};

TEST(GoldenDiamondExit, SegmentInsideOneDiamondDisappears) {
  // Figure 3(c): a segment that enters a pixel's diamond but ends inside it
  // colors nothing at all.
  Grid grid(4, 4);
  glsim::RasterizeLineDiamondExit({2.4, 2.5}, {2.6, 2.5}, grid.w, grid.h,
                                  [&](int x, int y) { grid.Add(x, y); });
  EXPECT_EQ(grid.ToString(),
            "....\n"
            "....\n"
            "....\n"
            "....\n");
}

TEST(GoldenDiamondExit, EndPixelOfSegmentNotColored) {
  // Figure 3(c): the basic rule drops the final pixel (the segment ends
  // inside pixel (3,0)'s diamond, so there is no exit).
  Grid grid(5, 2);
  glsim::RasterizeLineDiamondExit({0.5, 0.5}, {3.5, 0.5}, grid.w, grid.h,
                                  [&](int x, int y) { grid.Add(x, y); });
  EXPECT_EQ(grid.ToString(),
            ".....\n"
            "###..\n");
}

TEST(GoldenDiamondExit, ChainedSegmentColorsTheJoint) {
  // Figure 3(d): in a chain the next segment exits the joint pixel's
  // diamond upward, so the pixel dropped by the first segment is colored
  // by the second — the behavior that makes per-segment reasoning about
  // the basic rule so error-prone.
  Grid grid(5, 4);
  const auto emit = [&](int x, int y) { grid.Add(x, y); };
  glsim::RasterizeLineDiamondExit({0.5, 0.5}, {3.5, 0.5}, grid.w, grid.h,
                                  emit);
  EXPECT_EQ(grid.At(3, 0), 0);  // dropped by the first segment...
  glsim::RasterizeLineDiamondExit({3.5, 0.5}, {3.5, 3.5}, grid.w, grid.h,
                                  emit);
  EXPECT_GT(grid.At(3, 0), 0);  // ...recovered by the second
}

TEST(GoldenLineAA, HorizontalWidthCoverageRectangle) {
  // Figure 4: a width-0.9 horizontal line covers exactly the cells its
  // footprint rectangle [1.25, 4.75] x [1.05, 1.95] intersects.
  Grid grid(8, 4);
  glsim::RasterizeLineAA({1.25, 1.5}, {4.75, 1.5}, 0.9, grid.w, grid.h,
                         [&](int x, int y) { grid.Add(x, y); });
  EXPECT_EQ(grid.ToString(),
            "........\n"
            "........\n"
            ".####...\n"
            "........\n");
}

TEST(GoldenLineAA, VerticalWidthCoverageRectangle) {
  Grid grid(6, 6);
  glsim::RasterizeLineAA({2.5, 1.25}, {2.5, 4.75}, 0.9, grid.w, grid.h,
                         [&](int x, int y) { grid.Add(x, y); });
  EXPECT_EQ(grid.ToString(),
            "......\n"
            "..#...\n"
            "..#...\n"
            "..#...\n"
            "..#...\n"
            "......\n");
}

TEST(GoldenWidePoint, ClosedCellDiscFootprint) {
  // A size-5 (radius 2.5) point at a cell center: the disc's closed-cell
  // footprint, including the four single-pixel tips where the disc touches
  // a cell border in exactly one point (conservative closed contact).
  Grid grid(9, 9);
  glsim::RasterizeWidePoint({4.5, 4.5}, 5.0, grid.w, grid.h,
                            [&](int x, int y) { grid.Add(x, y); });
  EXPECT_EQ(grid.ToString(),
            ".........\n"
            "....#....\n"
            "..#####..\n"
            "..#####..\n"
            ".#######.\n"
            "..#####..\n"
            "..#####..\n"
            "....#....\n"
            ".........\n");
}

TEST(GoldenPolygonFill, SharedVerticalEdgeColoredOnce) {
  // §2.2.3 point sampling: two rectangles sharing the edge x = 4 tile the
  // plane — every covered pixel is colored by exactly one of the two fills.
  Grid grid(8, 6);
  const std::vector<Point> left = {{1, 1}, {4, 1}, {4, 5}, {1, 5}};
  const std::vector<Point> right = {{4, 1}, {7, 1}, {7, 5}, {4, 5}};
  const auto emit = [&](int x, int y) { grid.Add(x, y); };
  glsim::RasterizePolygonFill(left, grid.w, grid.h, emit);
  glsim::RasterizePolygonFill(right, grid.w, grid.h, emit);
  EXPECT_EQ(grid.ToString(),
            "........\n"
            ".######.\n"
            ".######.\n"
            ".######.\n"
            ".######.\n"
            "........\n");
  for (int y = 0; y < grid.h; ++y) {
    for (int x = 0; x < grid.w; ++x) {
      EXPECT_LE(grid.At(x, y), 1) << "pixel " << x << "," << y
                                  << " colored by both polygons";
    }
  }
}

TEST(GoldenPolygonFill, SharedHorizontalEdgeColoredOnce) {
  Grid grid(6, 7);
  const std::vector<Point> bottom = {{1, 1}, {4, 1}, {4, 3}, {1, 3}};
  const std::vector<Point> top = {{1, 3}, {4, 3}, {4, 6}, {1, 6}};
  const auto emit = [&](int x, int y) { grid.Add(x, y); };
  glsim::RasterizePolygonFill(bottom, grid.w, grid.h, emit);
  glsim::RasterizePolygonFill(top, grid.w, grid.h, emit);
  for (int y = 0; y < grid.h; ++y) {
    for (int x = 0; x < grid.w; ++x) {
      const bool inside = x >= 1 && x < 4 && y >= 1 && y < 6;
      EXPECT_EQ(grid.At(x, y), inside ? 1 : 0) << "pixel " << x << "," << y;
    }
  }
}

}  // namespace
}  // namespace hasj
