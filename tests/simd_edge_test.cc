// Hand-computed golden cases for the row-span kernels (rowspan.h), aimed
// at the bit-layout edges where a SIMD port is most likely to diverge:
// spans starting/ending mid-word, spans narrower than one column, spans
// crossing word boundaries, rows at the packed 8x8 tile's edges, full-row
// saturation, zero-width spans, and spans clipped entirely outside the
// viewport (which the snapping contract clamps INTO the border column —
// conservative, never lost). Every case is checked against hand-computed
// masks on the scalar backend, and — when the host has AVX2 — against the
// AVX2 backend too, so a golden doubles as a differential case.
//
// The expected columns follow SnapSpanToCols: column c (cell [c, c+1])
// intersects [xlo, xhi] iff c <= xhi and c+1 >= xlo, i.e.
// c0 = ceil(xlo - tol) - 1 and c1 = floor(xhi + tol), clamped to
// [0, vw-1].

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"
#include "glsim/raster.h"
#include "glsim/rowspan.h"
#include "tests/test_seed.h"

namespace hasj {
namespace {

using common::SimdMode;
using geom::Point;
using glsim::FillResult;
using glsim::PixelBox;
using glsim::PixelMask;
using glsim::ProbeResult;
using glsim::RowSpanBuffer;
using glsim::RowSpanEngine;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Engines under test: scalar always, avx2 when the host supports it.
std::vector<const RowSpanEngine*> Engines() {
  std::vector<const RowSpanEngine*> engines;
  engines.push_back(&RowSpanEngine::Get(SimdMode::kScalar));
  if (RowSpanEngine::Available(SimdMode::kAvx2)) {
    engines.push_back(&RowSpanEngine::Get(SimdMode::kAvx2));
  }
  return engines;
}

// Buffer with all rows [0, vh) prepared and empty.
void EmptySpans(int vh, RowSpanBuffer* spans) {
  spans->row_min = 0;
  spans->row_max = vh - 1;
  for (int r = 0; r < vh; ++r) {
    spans->xlo[r] = kInf;
    spans->xhi[r] = -kInf;
  }
}

uint64_t Bits(int c0, int c1) { return glsim::RowMask(c0, c1); }

struct PackedCase {
  const char* name;
  double xlo;
  double xhi;
  int row;
  uint64_t expected_row_bits;  // before the << row*vw shift
};

TEST(SimdEdge, PackedSingleRowGoldens) {
  constexpr int vw = 8;
  const PackedCase cases[] = {
      // Interior span: columns 1..4 ([2,4] also touches cell [1,2] at x=2).
      {"interior", 2.0, 4.0, 3, Bits(1, 4)},
      // Zero-width span strictly inside cell 3: column 3 only.
      {"zero-width-mid-cell", 3.5, 3.5, 0, Bits(3, 3)},
      // Zero-width span exactly on the 3|4 cell border: both cells 2 and 3.
      {"zero-width-on-border", 3.0, 3.0, 7, Bits(2, 3)},
      // Narrower than one column, mid-row.
      {"sub-pixel", 5.2, 5.3, 4, Bits(5, 5)},
      // Entirely left of the viewport: clamps into column 0.
      {"clipped-left", -7.0, -5.0, 2, Bits(0, 0)},
      // Entirely right of the viewport: clamps into column vw-1.
      {"clipped-right", 12.0, 14.0, 5, Bits(7, 7)},
      // Overshooting both sides: the full row.
      {"full-row", -3.0, 100.0, 6, Bits(0, 7)},
      // Top row of the 8x8 tile (highest shift in the packed word).
      {"top-row", 0.5, 6.5, 7, Bits(0, 6)},
  };
  for (const RowSpanEngine* engine : Engines()) {
    for (const PackedCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " on " + engine->name());
      RowSpanBuffer spans;
      EmptySpans(8, &spans);
      spans.xlo[c.row] = c.xlo;
      spans.xhi[c.row] = c.xhi;
      uint64_t word = 0;
      const FillResult fill = engine->FillPacked(&spans, vw, &word);
      const uint64_t expected = c.expected_row_bits << (c.row * vw);
      EXPECT_EQ(word, expected);
      EXPECT_EQ(fill.spans, 1);
      EXPECT_EQ(fill.newly_set, __builtin_popcountll(expected));

      // Probe against the matching mask: hit at exactly that row.
      const ProbeResult hit = engine->ProbePacked(&spans, vw, &word);
      EXPECT_EQ(hit.hit_row, c.row);
      EXPECT_EQ(hit.spans, 1);
      // Probe against the complement within the row: no hit.
      const uint64_t miss_word = (~expected) &
                                 (Bits(0, vw - 1) << (c.row * vw));
      const ProbeResult miss = engine->ProbePacked(&spans, vw, &miss_word);
      EXPECT_EQ(miss.hit_row, -1);
      EXPECT_EQ(miss.spans, 1);
    }
  }
}

TEST(SimdEdge, PackedMixedRowsWithinOneQuad) {
  // Rows 0..3 land in a single AVX2 quad: rows 0 and 2 empty, 1 and 3 set.
  // The garbage lanes of the quad must contribute nothing.
  constexpr int vw = 8;
  for (const RowSpanEngine* engine : Engines()) {
    SCOPED_TRACE(engine->name());
    RowSpanBuffer spans;
    EmptySpans(8, &spans);
    spans.xlo[1] = 1.25;
    spans.xhi[1] = 2.75;  // columns 1..2
    spans.xlo[3] = 6.5;
    spans.xhi[3] = 6.6;  // column 6
    uint64_t word = 0;
    const FillResult fill = engine->FillPacked(&spans, vw, &word);
    const uint64_t expected =
        (Bits(1, 2) << (1 * vw)) | (Bits(6, 6) << (3 * vw));
    EXPECT_EQ(word, expected);
    EXPECT_EQ(fill.spans, 2);
    EXPECT_EQ(fill.newly_set, 3);

    // Refill: everything already set, newly_set must be zero (the
    // saturation budget the per-pair fill loop runs on).
    const FillResult refill = engine->FillPacked(&spans, vw, &word);
    EXPECT_EQ(refill.spans, 2);
    EXPECT_EQ(refill.newly_set, 0);
    EXPECT_EQ(word, expected);

    // A mask hitting only row 3's span: the probe must count BOTH
    // non-empty rows (row 1 probed and missed, row 3 hit) and stop there.
    const uint64_t only_row3 = Bits(6, 6) << (3 * vw);
    const ProbeResult probe = engine->ProbePacked(&spans, vw, &only_row3);
    EXPECT_EQ(probe.hit_row, 3);
    EXPECT_EQ(probe.spans, 2);
  }
}

TEST(SimdEdge, RowsMidWordAndWordCrossing) {
  // Word-per-row layout (vw=32, stride 1): spans starting and ending
  // mid-word; and a wide layout (vw=128, stride 2) span crossing the
  // 64-bit word boundary.
  for (const RowSpanEngine* engine : Engines()) {
    SCOPED_TRACE(engine->name());
    {
      constexpr int vw = 32;
      RowSpanBuffer spans;
      EmptySpans(4, &spans);
      spans.xlo[2] = 5.25;
      spans.xhi[2] = 17.75;  // columns 5..17
      uint64_t words[4] = {0, 0, 0, 0};
      const FillResult fill = engine->FillRows(&spans, vw, 1, words);
      EXPECT_EQ(words[0], 0u);
      EXPECT_EQ(words[1], 0u);
      EXPECT_EQ(words[2], Bits(5, 17));
      EXPECT_EQ(words[3], 0u);
      EXPECT_EQ(fill.spans, 1);
      EXPECT_EQ(fill.newly_set, 13);
    }
    {
      constexpr int vw = 128;
      RowSpanBuffer spans;
      EmptySpans(2, &spans);
      spans.xlo[1] = 60.0;
      spans.xhi[1] = 70.0;  // columns 59..70: bits 59..63 of w0, 0..6 of w1
      uint64_t words[4] = {0, 0, 0, 0};
      const FillResult fill = engine->FillRows(&spans, vw, 2, words);
      EXPECT_EQ(words[0], 0u);
      EXPECT_EQ(words[1], 0u);
      EXPECT_EQ(words[2], Bits(59, 63));
      EXPECT_EQ(words[3], Bits(0, 6));
      EXPECT_EQ(fill.spans, 1);
      EXPECT_EQ(fill.newly_set, 12);

      // Probe hitting only the second word of the row.
      uint64_t mask[4] = {0, 0, 0, uint64_t{1} << 3};
      const ProbeResult probe = engine->ProbeRows(&spans, vw, 2, mask);
      EXPECT_EQ(probe.hit_row, 1);
      EXPECT_EQ(probe.spans, 1);
    }
  }
}

TEST(SimdEdge, FullRowSaturation) {
  // Every row overshoots the viewport on both sides: the packed grid and a
  // word-per-row tile must both come out completely set, with newly_set
  // equal to the pixel count.
  for (const RowSpanEngine* engine : Engines()) {
    SCOPED_TRACE(engine->name());
    {
      constexpr int vw = 8;
      RowSpanBuffer spans;
      EmptySpans(8, &spans);
      for (int r = 0; r < 8; ++r) {
        spans.xlo[r] = -100.0;
        spans.xhi[r] = 100.0;
      }
      uint64_t word = 0;
      const FillResult fill = engine->FillPacked(&spans, vw, &word);
      EXPECT_EQ(word, ~uint64_t{0});
      EXPECT_EQ(fill.spans, 8);
      EXPECT_EQ(fill.newly_set, 64);
    }
    {
      constexpr int vw = 64;
      RowSpanBuffer spans;
      EmptySpans(3, &spans);
      for (int r = 0; r < 3; ++r) {
        spans.xlo[r] = -1.0;
        spans.xhi[r] = 65.0;
      }
      uint64_t words[3] = {0, 0, 0};
      const FillResult fill = engine->FillRows(&spans, vw, 1, words);
      for (int r = 0; r < 3; ++r) EXPECT_EQ(words[r], ~uint64_t{0});
      EXPECT_EQ(fill.spans, 3);
      EXPECT_EQ(fill.newly_set, 192);
    }
  }
}

TEST(SimdEdge, ProbeStopsAtFirstHitRow) {
  // Hits exist at rows 2 and 6; the probe must report row 2 and count only
  // the non-empty rows up to it (rows 1 and 2 — row 0 is empty and never
  // counted). This is the early-stop point both backends must share for
  // scan_spans to be backend-invariant.
  constexpr int vw = 8;
  for (const RowSpanEngine* engine : Engines()) {
    SCOPED_TRACE(engine->name());
    RowSpanBuffer spans;
    EmptySpans(8, &spans);
    for (int r : {1, 2, 5, 6}) {
      spans.xlo[r] = 2.5;
      spans.xhi[r] = 4.5;  // columns 2..4
    }
    const uint64_t mask =
        (Bits(3, 3) << (2 * vw)) | (Bits(3, 3) << (6 * vw));
    const ProbeResult probe = engine->ProbePacked(&spans, vw, &mask);
    EXPECT_EQ(probe.hit_row, 2);
    EXPECT_EQ(probe.spans, 2);

    // No overlap anywhere: all four non-empty rows are probed.
    const uint64_t miss = Bits(7, 7) << (4 * vw);
    const ProbeResult none = engine->ProbePacked(&spans, vw, &miss);
    EXPECT_EQ(none.hit_row, -1);
    EXPECT_EQ(none.spans, 4);
  }
}

TEST(SimdEdge, EmptyAndInvertedBufferIsNoop) {
  // All-empty and inverted (xlo > xhi) rows must touch nothing and count
  // nothing, in every layout.
  for (const RowSpanEngine* engine : Engines()) {
    SCOPED_TRACE(engine->name());
    RowSpanBuffer spans;
    EmptySpans(8, &spans);
    spans.xlo[3] = 5.0;
    spans.xhi[3] = 2.0;  // inverted: empty by the SnapSpanToCols contract
    uint64_t word = 0;
    const FillResult fill = engine->FillPacked(&spans, 8, &word);
    EXPECT_EQ(word, 0u);
    EXPECT_EQ(fill.spans, 0);
    EXPECT_EQ(fill.newly_set, 0);
    const uint64_t full = ~uint64_t{0};
    const ProbeResult probe = engine->ProbePacked(&spans, 8, &full);
    EXPECT_EQ(probe.hit_row, -1);
    EXPECT_EQ(probe.spans, 0);

    uint64_t words[8] = {};
    const FillResult rows_fill = engine->FillRows(&spans, 32, 1, words);
    EXPECT_EQ(rows_fill.spans, 0);
    EXPECT_EQ(rows_fill.newly_set, 0);
    for (uint64_t w : words) EXPECT_EQ(w, 0u);
  }
}

// ---------------------------------------------------------------------------
// Pixel boxes (glsim::LineAAPixelBox) and the mask's box queries. The
// per-pair tester skips a fill whose box is all set and a probe whose box
// has no set pixel, so the box must hold every pixel the primitive's spans
// colour — through every kernel backend, with the seeded coverage shrink
// on, and for the per-pixel reference rasterizer too.

// Both PixelMask layouts: packed (w*h <= 64) and row-aligned.
constexpr int kBoxResolutions[] = {1, 2, 8, 9, 16, 32, 70};

struct BoxSegment {
  Point a;
  Point b;
  double width;
  bool sliver;  // built to sit on a snapping-tolerance edge
};

double RandomWidth(Rng& rng) {
  return rng.Uniform(std::sqrt(2.0), 10.0);
}

// Window-space segments of every kind a box must cover, for a res x res
// window. Lattice widths are the intersection test's √2 and every whole
// pixel width up to the hardware limit: the distance test renders its
// lines and end caps ceil(D * scale) pixels wide.
std::vector<BoxSegment> BoxSegments(int res, Rng& rng) {
  std::vector<BoxSegment> out;
  std::vector<double> widths = {std::sqrt(2.0)};
  for (int w = 2; w <= glsim::HwLimits{}.max_line_width; ++w) {
    widths.push_back(w);
  }
  const auto lattice_width = [&] {
    return widths[rng.UniformInt(0, static_cast<int64_t>(widths.size()) - 1)];
  };
  for (int i = 0; i < 150; ++i) {
    // Anywhere around the window.
    out.push_back({{rng.Uniform(-0.25 * res, 1.25 * res),
                    rng.Uniform(-0.25 * res, 1.25 * res)},
                   {rng.Uniform(-0.25 * res, 1.25 * res),
                    rng.Uniform(-0.25 * res, 1.25 * res)},
                   RandomWidth(rng), false});
    // Endpoints on integer rows and columns: with width 2 the corners of
    // an axis-aligned footprint land exactly on pixel borders.
    const auto lattice = [&] {
      return static_cast<double>(rng.UniformInt(-2, res + 2));
    };
    const double w = lattice_width();
    const Point p{lattice(), lattice()};
    const Point q = rng.UniformInt(0, 1) == 0 ? Point{lattice(), p.y}
                                              : Point{lattice(), lattice()};
    out.push_back({p, q, w, false});
    // a == b: the wide-point disc (a distance test's end cap), centred on
    // and off the lattice, at lattice and random widths.
    const Point c = rng.UniformInt(0, 1) == 0
                        ? p
                        : Point{rng.Uniform(-2, res + 2),
                                rng.Uniform(-2, res + 2)};
    out.push_back({c, c, RandomWidth(rng), false});
    out.push_back({p, p, lattice_width(), false});
    // Far outside the window: one or both endpoints 1e3..1e6 windows away.
    const double far = res * std::pow(10.0, rng.Uniform(3, 6));
    const double angle = rng.Uniform(0, 2 * std::numbers::pi);
    const Point away{res * 0.5 + far * std::cos(angle),
                     res * 0.5 + far * std::sin(angle)};
    const Point near{rng.Uniform(0, res), rng.Uniform(0, res)};
    out.push_back({near, away, RandomWidth(rng), false});
    out.push_back({away, {-away.x + res, away.y + rng.Uniform(-1, 1)},
                   RandomWidth(rng), false});
    // A sliver: a nearly horizontal segment whose footprint top (or,
    // mirrored, bottom) vertex sits a hair past row border k, so that
    // row's span covers only the segment's right end, whose max x sits
    // within a few snapping tolerances below column border n. There the
    // span's own snap tolerance, relative to |xlo| + |xhi| ~ 2n, exceeds a
    // tolerance relative to |min x| + |max x| ~ n: the case the box's x
    // pad exists for.
    if (res >= 2) {
      const int n = static_cast<int>(rng.UniformInt(1, res - 1));
      const int k = static_cast<int>(rng.UniformInt(1, res - 1));
      const double sw = lattice_width();
      const double dy = rng.Uniform(0.2, 1.0) * 1e-13;
      const double x_end = n - rng.Uniform(0, 2.5e-12 * n);
      const double x_start = rng.Uniform(0, 0.5 * n);
      const double y_end = k - sw * 0.5 + rng.Uniform(0.02, 0.3) * dy;
      Point s0{x_start, y_end - dy};
      Point s1{x_end, y_end};
      if (rng.UniformInt(0, 1) == 0) {  // mirror rows: the bottom vertex
        s0.y = res - s0.y;
        s1.y = res - s1.y;
      }
      if (rng.UniformInt(0, 1) == 0) std::swap(s0, s1);
      out.push_back({s0, s1, sw, true});
    }
  }
  return out;
}

// Set pixels of `mask` inside `box`.
int CountInBox(const PixelMask& mask, const PixelBox& box) {
  int n = 0;
  for (int y = box.y0; y <= box.y1; ++y) {
    for (int x = box.x0; x <= box.x1; ++x) n += mask.Test(x, y) ? 1 : 0;
  }
  return n;
}

// Bounding box of the set pixels of a non-empty mask.
PixelBox SetBounds(const PixelMask& mask) {
  PixelBox b{mask.width(), mask.height(), -1, -1};
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      if (!mask.Test(x, y)) continue;
      b.x0 = std::min(b.x0, x);
      b.y0 = std::min(b.y0, y);
      b.x1 = std::max(b.x1, x);
      b.y1 = std::max(b.y1, y);
    }
  }
  return b;
}

// Flips the seeded under-coverage bug for one scope.
class ScopedCoverageShrink {
 public:
  explicit ScopedCoverageShrink(bool on) { glsim::TestCoverageShrink() = on; }
  ~ScopedCoverageShrink() { glsim::TestCoverageShrink() = false; }
  ScopedCoverageShrink(const ScopedCoverageShrink&) = delete;
  ScopedCoverageShrink& operator=(const ScopedCoverageShrink&) = delete;
};

TEST(PixelBoxTest, LineAABoxHoldsEverySpanPixel) {
  const uint64_t seed = TestSeed(1606);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  int slivers = 0;
  for (const int res : kBoxResolutions) {
    const std::vector<BoxSegment> segments = BoxSegments(res, rng);
    for (const bool shrink : {false, true}) {
      const ScopedCoverageShrink scoped(shrink);
      for (const BoxSegment& s : segments) {
        SCOPED_TRACE(testing::Message()
                     << std::hexfloat << "res " << res << " shrink " << shrink
                     << " a (" << s.a.x << ", " << s.a.y << ") b (" << s.b.x
                     << ", " << s.b.y << ") width " << s.width);
        PixelBox box;
        const bool boxed =
            glsim::LineAAPixelBox(s.a, s.b, s.width, res, res, &box);
        RowSpanBuffer probe_spans;
        ASSERT_EQ(boxed, glsim::ComputeLineAASpans(s.a, s.b, s.width, res,
                                                   res, &probe_spans));
        // The per-pixel reference rasterizer colours only inside the box.
        int outside = 0;
        glsim::RasterizeLineAA(s.a, s.b, s.width, res, res, [&](int x, int y) {
          if (!boxed || x < box.x0 || x > box.x1 || y < box.y0 ||
              y > box.y1) {
            ++outside;
          }
        });
        EXPECT_EQ(outside, 0);
        if (!boxed) continue;
        ASSERT_TRUE(box.x0 >= 0 && box.x0 <= box.x1 && box.x1 < res);
        ASSERT_TRUE(box.y0 >= 0 && box.y0 <= box.y1 && box.y1 < res);
        for (const RowSpanEngine* engine : Engines()) {
          SCOPED_TRACE(engine->name());
          RowSpanBuffer spans;  // the engine shrinks spans in place
          ASSERT_TRUE(glsim::ComputeLineAASpans(s.a, s.b, s.width, res, res,
                                                &spans));
          PixelMask mask(res, res);
          mask.FillSpans(*engine, &spans);
          EXPECT_EQ(CountInBox(mask, box), mask.CountSet());
          // Without the shrink, a footprint inside the window's rows is
          // boxed tightly: the skip rate rests on it.
          const double margin = s.width * 0.5;
          const bool inside_rows =
              std::min(s.a.y, s.b.y) >= margin &&
              std::max(s.a.y, s.b.y) <= res - margin;
          if (!shrink && !s.sliver && inside_rows) {
            const PixelBox set = SetBounds(mask);
            EXPECT_EQ(set.x0, box.x0);
            EXPECT_EQ(set.x1, box.x1);
            EXPECT_EQ(set.y0, box.y0);
            EXPECT_EQ(set.y1, box.y1);
          }
        }
        if (s.sliver && !shrink) ++slivers;
      }
    }
  }
  EXPECT_GT(slivers, 0);
}

TEST(PixelBoxTest, MaskBoxQueriesMatchPerPixel) {
  const uint64_t seed = TestSeed(1607);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  // Packed sizes first (w*h <= 64), then row-aligned ones, including rows
  // of several words.
  const int sizes[][2] = {{1, 1},   {2, 2},   {8, 8},   {4, 16}, {9, 9},
                          {16, 16}, {32, 32}, {70, 70}, {130, 3}};
  for (const auto& size : sizes) {
    const int w = size[0];
    const int h = size[1];
    SCOPED_TRACE(testing::Message() << w << "x" << h);
    PixelMask mask(w, h);
    for (int trial = 0; trial < 300; ++trial) {
      PixelBox box;
      box.x0 = static_cast<int>(rng.UniformInt(0, w - 1));
      box.x1 = static_cast<int>(rng.UniformInt(box.x0, w - 1));
      box.y0 = static_cast<int>(rng.UniformInt(0, h - 1));
      box.y1 = static_cast<int>(rng.UniformInt(box.y0, h - 1));
      // Random masks of every density, and masks set exactly on the box,
      // on the box but one pixel, and everywhere but the box.
      mask.Clear();
      const int kind = trial % 4;
      const double density = rng.Uniform(0, 1);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          const bool in = x >= box.x0 && x <= box.x1 && y >= box.y0 &&
                          y <= box.y1;
          const bool set = kind == 0   ? rng.Uniform(0, 1) < density
                           : kind == 3 ? !in
                                       : in;
          if (set) mask.Set(x, y);
        }
      }
      if (kind == 2) {
        const int x = static_cast<int>(rng.UniformInt(box.x0, box.x1));
        const int y = static_cast<int>(rng.UniformInt(box.y0, box.y1));
        PixelMask copy(w, h);
        for (int yy = 0; yy < h; ++yy) {
          for (int xx = 0; xx < w; ++xx) {
            if (mask.Test(xx, yy) && !(xx == x && yy == y)) copy.Set(xx, yy);
          }
        }
        mask = copy;
      }
      const int in_box = CountInBox(mask, box);
      const int area = (box.x1 - box.x0 + 1) * (box.y1 - box.y0 + 1);
      EXPECT_EQ(mask.AllSet(box), in_box == area) << "trial " << trial;
      EXPECT_EQ(mask.AnySet(box), in_box > 0) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace hasj
