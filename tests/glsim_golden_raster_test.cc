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
//    two polygons (§2.2.3 point sampling, half-open intervals);
//  * an Atlas tile holds exactly the same pixels as a standalone render,
//    and drawing into one tile cannot touch its neighbors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "geom/point.h"
#include "glsim/atlas.h"
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

// ---------------------------------------------------------------------------
// Atlas tiles.

std::string TileToString(const glsim::Atlas& atlas, int tile) {
  std::string out;
  for (int y = atlas.tile_res() - 1; y >= 0; --y) {
    for (int x = 0; x < atlas.tile_res(); ++x) {
      out += atlas.Test(tile, x, y) ? '#' : '.';
    }
    out += '\n';
  }
  return out;
}

TEST(GoldenAtlas, TileMatchesStandaloneRender) {
  // The same primitive rendered into an atlas tile (row-span filler) and
  // into a plain grid (per-pixel emit) must produce identical masks — the
  // shared row-span core of raster.h, pixel for pixel.
  const int res = 8;
  glsim::Atlas atlas(res, 4);
  atlas.Clear();
  glsim::Atlas::RowFiller fill(&atlas, 2);
  glsim::RasterizeLineAARowSpans({0.5, 0.5}, {6.8, 5.2}, 1.4142135623730951,
                                 res, res, fill);

  Grid grid(res, res);
  glsim::RasterizeLineAA({0.5, 0.5}, {6.8, 5.2}, 1.4142135623730951, res, res,
                         [&](int x, int y) { grid.Add(x, y); });
  EXPECT_EQ(TileToString(atlas, 2), grid.ToString());
  EXPECT_GT(atlas.CountSet(2), 0);
}

TEST(GoldenAtlas, DrawingIsScissoredToItsTile) {
  // A primitive far larger than its tile saturates that tile and leaves
  // every neighbor untouched — the tile-isolation property the batch
  // tester's correctness rests on (DESIGN.md §9).
  const int res = 8;
  glsim::Atlas atlas(res, 9);
  atlas.Clear();
  glsim::Atlas::RowFiller fill(&atlas, 4);
  glsim::RasterizeWidePointRowSpans({4.0, 4.0}, 64.0, res, res, fill);
  EXPECT_EQ(atlas.CountSet(4), res * res);
  for (int tile = 0; tile < 9; ++tile) {
    if (tile == 4) continue;
    EXPECT_EQ(atlas.CountSet(tile), 0) << "tile " << tile;
  }
}

TEST(GoldenAtlas, PackedRowSpanWord) {
  // Packed layout: an 8x8 tile is one machine word, row y at bits
  // [8y, 8y+8). A single row span (columns 2..5 of row 3) is the constant
  // 0x3C000000.
  glsim::Atlas atlas(8, 2);
  ASSERT_TRUE(atlas.packed());
  atlas.Clear();
  glsim::Atlas::RowFiller fill(&atlas, 1);
  fill(2, 5, 3);
  EXPECT_EQ(atlas.tile_words(1)[0], uint64_t{0x3C000000});
  EXPECT_EQ(atlas.tile_words(0)[0], uint64_t{0});
  EXPECT_EQ(atlas.CountSet(1), 4);
}

TEST(GoldenAtlas, ProberSeesExactlyTheFilledPixels) {
  glsim::Atlas atlas(8, 1);
  atlas.Clear();
  glsim::Atlas::RowFiller fill(&atlas, 0);
  fill(0, 3, 2);

  glsim::Atlas::RowProber miss(atlas, 0);
  EXPECT_FALSE(miss(4, 7, 2));  // same row, disjoint columns
  EXPECT_FALSE(miss(0, 3, 3));  // same columns, different row
  EXPECT_FALSE(miss.hit());

  glsim::Atlas::RowProber hit(atlas, 0);
  EXPECT_TRUE(hit(3, 5, 2));  // overlaps column 3
  EXPECT_TRUE(hit.hit());
  EXPECT_TRUE(hit(6, 7, 5));  // latched: stays hit for the primitive
}

}  // namespace
}  // namespace hasj
