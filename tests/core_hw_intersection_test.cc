#include "core/hw_intersection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "algo/polygon_intersect.h"
#include "algo/simplicity.h"
#include "common/random.h"
#include "data/catalogs.h"
#include "data/generator.h"
#include "tests/test_seed.h"

// Counts global operator new calls, for the no-allocation-per-pair check.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The replacement new above allocates with malloc, so free() is the
// matching release; gcc cannot see that through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hasj::core {
namespace {

using geom::Polygon;

// This file's subject is the hardware step, so its testers pin the
// paper's plan: the step on every pair past sw_threshold.
HwConfig StaticConfig() {
  HwConfig config;
  config.routing = HwRouting::kStatic;
  return config;
}

Polygon Square(double x0, double y0, double side) {
  return Polygon(
      {{x0, y0}, {x0 + side, y0}, {x0 + side, y0 + side}, {x0, y0 + side}});
}

TEST(HwIntersectionTest, BasicCases) {
  HwIntersectionTester tester;
  EXPECT_TRUE(tester.Test(Square(0, 0, 2), Square(1, 1, 2)));
  EXPECT_FALSE(tester.Test(Square(0, 0, 1), Square(5, 5, 1)));
  EXPECT_TRUE(tester.Test(Square(0, 0, 10), Square(4, 4, 1)));  // containment
  EXPECT_TRUE(tester.Test(Square(0, 0, 2), Square(2, 2, 2)));   // corner touch
}

TEST(HwIntersectionTest, CountersTrackPaths) {
  HwConfig config = StaticConfig();
  config.resolution = 8;
  HwIntersectionTester tester(config);
  // Containment: the hardware test finds no boundary overlap (the outer
  // boundary never reaches the inner MBR), and the deferred point-in-polygon
  // step decides positively.
  EXPECT_TRUE(tester.Test(Square(0, 0, 10), Square(4, 4, 1)));
  EXPECT_EQ(tester.counters().pip_hits, 1);
  EXPECT_EQ(tester.counters().hw_tests, 1);
  // MBRs overlap, geometries far apart: hardware rejects, no containment.
  const Polygon l_shape({{0, 0}, {10, 0}, {10, 1}, {1, 1}, {1, 10}, {0, 10}});
  EXPECT_FALSE(tester.Test(l_shape, Square(6, 6, 2)));
  EXPECT_EQ(tester.counters().hw_tests, 2);
  EXPECT_EQ(tester.counters().hw_rejects, 2);
  EXPECT_EQ(tester.counters().sw_tests, 0);
  // Plus-shaped boundary crossing (no probe-vertex containment): survives
  // the hardware filter, software confirms.
  const Polygon horizontal({{0, 3}, {10, 3}, {10, 5}, {0, 5}});
  const Polygon vertical({{3, 0}, {5, 0}, {5, 10}, {3, 10}});
  EXPECT_TRUE(tester.Test(horizontal, vertical));
  EXPECT_EQ(tester.counters().hw_tests, 3);
  EXPECT_EQ(tester.counters().hw_rejects, 2);
  EXPECT_EQ(tester.counters().sw_tests, 1);
  EXPECT_EQ(tester.counters().tests, 3);
}

TEST(HwIntersectionTest, SwThresholdSkipsHardware) {
  HwConfig config = StaticConfig();
  config.sw_threshold = 100;
  HwIntersectionTester tester(config);
  // Crossing pair that reaches the segment-test stage.
  const Polygon horizontal({{0, 3}, {10, 3}, {10, 5}, {0, 5}});
  const Polygon vertical({{3, 0}, {5, 0}, {5, 10}, {3, 10}});
  EXPECT_TRUE(tester.Test(horizontal, vertical));
  EXPECT_EQ(tester.counters().hw_tests, 0);
  EXPECT_EQ(tester.counters().sw_threshold_skips, 1);
}

// Under kByCost no intersection pair takes the hardware step: a pair past
// sw_threshold counts cost_skips and goes to the exact engine, with the
// verdicts of kStatic, which renders every such pair. A pair under
// sw_threshold still counts there, not in cost_skips.
TEST(HwIntersectionTest, RoutedPlanSendsEveryPairToTheExactEngine) {
  struct Case {
    Polygon p;
    Polygon q;
    bool want;
  };
  const Case cases[] = {
      {Square(0, 0, 2), Square(1, 1, 2), true},   // boundaries cross
      {Square(0, 0, 10), Square(4, 4, 2), true},  // containment
      // MBRs meet, regions do not.
      {Polygon({{0, 0}, {4, 0}, {0, 4}}), Polygon({{4, 1}, {4, 4}, {1, 4}}),
       false},
  };
  HwIntersectionTester routed(HwConfig{});
  HwIntersectionTester paper(StaticConfig());
  for (const Case& c : cases) {
    EXPECT_EQ(routed.Test(c.p, c.q), c.want);
    EXPECT_EQ(paper.Test(c.p, c.q), c.want);
  }
  EXPECT_EQ(routed.counters().cost_skips, 3);
  EXPECT_EQ(routed.counters().hw_tests, 0);
  EXPECT_EQ(routed.counters().sw_tests, 3);
  EXPECT_EQ(paper.counters().hw_tests, 3);
  EXPECT_EQ(paper.counters().cost_skips, 0);

  HwConfig threshold;
  threshold.sw_threshold = 8;
  HwIntersectionTester skipped(threshold);
  EXPECT_TRUE(skipped.Test(cases[0].p, cases[0].q));
  EXPECT_EQ(skipped.counters().sw_threshold_skips, 1);
  EXPECT_EQ(skipped.counters().cost_skips, 0);
  EXPECT_EQ(skipped.counters().hw_tests, 0);
}

// A pair whose run boxes do not meet never takes the hardware step under
// kByCost: the exact engine decides "no crossing" without a segment test
// (run_box_rejects). Under kStatic the hardware step rejects it first.
TEST(HwIntersectionTest, RunBoxRejectsSkipTheSegmentTest) {
  // An L-shaped band and a square in its notch: the MBRs overlap, and no
  // edge of the band reaches the square's MBR.
  const Polygon ell({{0, 0}, {10, 0}, {10, 1}, {1, 1}, {1, 10}, {0, 10}});
  const Polygon notch({{5, 5}, {9, 5}, {9, 9}, {5, 9}});
  HwIntersectionTester routed(HwConfig{});
  EXPECT_FALSE(routed.Test(ell, notch));
  EXPECT_EQ(routed.counters().mbr_misses, 0);
  EXPECT_EQ(routed.counters().cost_skips, 1);
  EXPECT_EQ(routed.counters().hw_tests, 0);
  EXPECT_EQ(routed.counters().sw_tests, 1);
  EXPECT_EQ(routed.counters().run_box_rejects, 1);
  HwIntersectionTester paper(StaticConfig());
  EXPECT_FALSE(paper.Test(ell, notch));
  EXPECT_EQ(paper.counters().hw_rejects, 1);
  EXPECT_EQ(paper.counters().run_box_rejects, 0);
}

// The headline property: the hardware-assisted test is exact at every
// resolution and with every backend, because the hardware stage is a
// conservative filter. Any disagreement with the software test is a bug.
class HwIntersectionExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, HwBackend, uint64_t>> {};

TEST_P(HwIntersectionExactnessTest, AgreesWithSoftware) {
  const auto [resolution, backend, seed] = GetParam();
  HwConfig config = StaticConfig();
  config.resolution = resolution;
  config.backend = backend;
  HwIntersectionTester tester(config);

  hasj::Rng rng(seed);
  int hits = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const Polygon a = data::GenerateBlobPolygon(
        {rng.Uniform(0, 8), rng.Uniform(0, 8)}, rng.Uniform(0.3, 3.0),
        static_cast<int>(rng.UniformInt(3, 70)), 0.6, rng.Next());
    const Polygon b = data::GenerateBlobPolygon(
        {rng.Uniform(0, 8), rng.Uniform(0, 8)}, rng.Uniform(0.3, 3.0),
        static_cast<int>(rng.UniformInt(3, 70)), 0.6, rng.Next());
    const bool expected = algo::PolygonsIntersect(a, b);
    EXPECT_EQ(tester.Test(a, b), expected) << "iter " << iter;
    hits += expected;
  }
  EXPECT_GT(hits, 10);
  EXPECT_LT(hits, 110);
  // The hardware filter must actually reject something on this workload
  // (at 1x1 nearly nothing is rejected, so only check higher resolutions).
  if (resolution >= 4) {
    EXPECT_GT(tester.counters().hw_rejects, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HwIntersectionExactnessTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(HwBackend::kFaithful,
                                         HwBackend::kBitmask),
                       ::testing::Values(201, 202)));

TEST(HwIntersectionTest, BackendsAreDecisionIdentical) {
  HwConfig faithful = StaticConfig();
  faithful.backend = HwBackend::kFaithful;
  HwConfig bitmask = StaticConfig();
  bitmask.backend = HwBackend::kBitmask;
  HwIntersectionTester tf(faithful), tb(bitmask);

  hasj::Rng rng(777);
  for (int iter = 0; iter < 150; ++iter) {
    const Polygon a = data::GenerateBlobPolygon(
        {rng.Uniform(0, 8), rng.Uniform(0, 8)}, rng.Uniform(0.3, 3.0),
        static_cast<int>(rng.UniformInt(3, 60)), 0.6, rng.Next());
    const Polygon b = data::GenerateBlobPolygon(
        {rng.Uniform(0, 8), rng.Uniform(0, 8)}, rng.Uniform(0.3, 3.0),
        static_cast<int>(rng.UniformInt(3, 60)), 0.6, rng.Next());
    EXPECT_EQ(tf.Test(a, b), tb.Test(a, b)) << "iter " << iter;
  }
  // Not just same final answers: same filtering decisions throughout.
  EXPECT_EQ(tf.counters().hw_rejects, tb.counters().hw_rejects);
  EXPECT_EQ(tf.counters().sw_tests, tb.counters().sw_tests);
}

TEST(HwIntersectionTest, MinmaxAndReadbackAgree) {
  HwConfig minmax = StaticConfig();
  minmax.use_minmax = true;
  HwConfig readback = StaticConfig();
  readback.use_minmax = false;
  HwIntersectionTester tm(minmax), tr(readback);
  hasj::Rng rng(779);
  for (int iter = 0; iter < 80; ++iter) {
    const Polygon a = data::GenerateBlobPolygon(
        {rng.Uniform(0, 6), rng.Uniform(0, 6)}, rng.Uniform(0.3, 2.5),
        static_cast<int>(rng.UniformInt(3, 40)), 0.5, rng.Next());
    const Polygon b = data::GenerateBlobPolygon(
        {rng.Uniform(0, 6), rng.Uniform(0, 6)}, rng.Uniform(0.3, 2.5),
        static_cast<int>(rng.UniformInt(3, 40)), 0.5, rng.Next());
    EXPECT_EQ(tm.Test(a, b), tr.Test(a, b));
  }
  EXPECT_EQ(tm.counters().hw_rejects, tr.counters().hw_rejects);
}

TEST(HwIntersectionTest, TouchingPolygonsNeverFilteredOut) {
  // Adversarial: pairs touching in exactly one point, including opposite
  // collinear touching — the case where open-coverage semantics would
  // produce a zero-area footprint overlap.
  HwIntersectionTester tester(StaticConfig());
  // Corner-to-corner.
  EXPECT_TRUE(tester.Test(Square(0, 0, 2), Square(2, 2, 2)));
  // Collinear edges, opposite directions, single shared point.
  const Polygon left({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon right({{2, 0}, {4, 0}, {4, 2}, {2, 2}});
  EXPECT_TRUE(tester.Test(left, right));
  // Vertex touching edge interior.
  const Polygon spike({{4, 1}, {6, 0}, {6, 2}});
  const Polygon wall({{0, 0}, {4, 0}, {4, 2}, {0, 2}});
  EXPECT_TRUE(tester.Test(spike, wall));
}

TEST(HwIntersectionTest, SinglePointTouchThroughHardwarePath) {
  // Two triangles sharing only the point (2, 2), arranged so the
  // point-in-polygon step (which probes vertex 0 of each) does not fire and
  // the MBR intersection degenerates to a zero-width line. The hardware
  // filter must still keep the pair (closed-coverage semantics), and the
  // software test must confirm it.
  const Polygon ltri({{0, 0}, {2, 2}, {0, 4}});
  const Polygon rtri({{4, 0}, {2, 2}, {4, 4}});
  for (int resolution : {1, 2, 8, 32}) {
    for (HwBackend backend : {HwBackend::kFaithful, HwBackend::kBitmask}) {
      HwConfig config = StaticConfig();
      config.resolution = resolution;
      config.backend = backend;
      HwIntersectionTester tester(config);
      EXPECT_TRUE(tester.Test(ltri, rtri)) << "res " << resolution;
      EXPECT_EQ(tester.counters().hw_tests, 1);
      EXPECT_EQ(tester.counters().hw_rejects, 0);
    }
  }
}

TEST(HwIntersectionTest, EdgeSharedMbrsDegenerateViewport) {
  // MBRs share exactly one edge: the intersection box has zero width, so
  // the render viewport degenerates to a vertical line and SetDataRect must
  // inflate it rather than divide by zero. Swept over resolutions and
  // backends because the failure mode (NaN window coordinates) depends on
  // the scale factors.
  const Polygon left({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon right({{2, 0}, {4, 0}, {4, 2}, {2, 2}});       // shares x=2
  const Polygon right_up({{2, 3}, {4, 3}, {4, 5}, {2, 5}});    // disjoint
  const Polygon above({{0, 2}, {2, 2}, {2, 4}, {0, 4}});       // shares y=2
  for (int resolution : {1, 2, 8, 32}) {
    for (HwBackend backend : {HwBackend::kFaithful, HwBackend::kBitmask}) {
      HwConfig config = StaticConfig();
      config.resolution = resolution;
      config.backend = backend;
      HwIntersectionTester tester(config);
      SCOPED_TRACE(testing::Message() << "res " << resolution << " backend "
                                      << static_cast<int>(backend));
      EXPECT_TRUE(tester.Test(left, right));   // whole edge shared
      EXPECT_TRUE(tester.Test(left, above));   // zero-height viewport
      EXPECT_FALSE(tester.Test(left, right_up));
    }
  }
}

TEST(HwIntersectionTest, CornerSharedMbrsPointViewport) {
  // MBRs share exactly one corner: zero width AND zero height, the
  // strongest degenerate-viewport case. The polygons meet at (2, 2), so
  // closed-coverage semantics require a positive answer at any resolution.
  const Polygon lower(
      {{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon upper({{2, 2}, {4, 2}, {4, 4}, {2, 4}});
  // Same MBR corner-touch geometry but the boundaries stay away from the
  // shared corner: MBR filter passes, refinement must say no.
  const Polygon lower_notch({{0, 0}, {2, 0}, {1, 1}, {0, 2}});
  const Polygon upper_notch({{3, 3}, {4, 2}, {4, 4}, {2, 4}});
  for (int resolution : {1, 2, 8, 32}) {
    for (HwBackend backend : {HwBackend::kFaithful, HwBackend::kBitmask}) {
      HwConfig config = StaticConfig();
      config.resolution = resolution;
      config.backend = backend;
      HwIntersectionTester tester(config);
      SCOPED_TRACE(testing::Message() << "res " << resolution << " backend "
                                      << static_cast<int>(backend));
      EXPECT_TRUE(tester.Test(lower, upper));
      EXPECT_FALSE(tester.Test(lower_notch, upper_notch));
    }
  }
}

TEST(HwIntersectionTest, TouchingMbrPairsAgreeWithSoftwareRandomized) {
  // Randomized regression for the degenerate-viewport path: blob pairs
  // translated so their MBRs touch exactly (shared edge), which forces a
  // zero-area MBR intersection through the full hardware pipeline.
  HwIntersectionTester tester(StaticConfig());
  hasj::Rng rng(881);
  for (int iter = 0; iter < 60; ++iter) {
    const Polygon a = data::GenerateBlobPolygon(
        {rng.Uniform(0, 4), rng.Uniform(0, 4)}, rng.Uniform(0.5, 2.0),
        static_cast<int>(rng.UniformInt(3, 40)), 0.6, rng.Next());
    Polygon b = data::GenerateBlobPolygon(
        {rng.Uniform(0, 4), rng.Uniform(0, 4)}, rng.Uniform(0.5, 2.0),
        static_cast<int>(rng.UniformInt(3, 40)), 0.6, rng.Next());
    // Slide b so that min-x of b's MBR equals max-x of a's MBR.
    const double dx = a.Bounds().max_x - b.Bounds().min_x;
    std::vector<geom::Point> shifted;
    shifted.reserve(b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      shifted.push_back({b.vertex(i).x + dx, b.vertex(i).y});
    }
    b = Polygon(shifted);
    ASSERT_DOUBLE_EQ(a.Bounds().max_x, b.Bounds().min_x);
    EXPECT_EQ(tester.Test(a, b), algo::PolygonsIntersect(a, b))
        << "iter " << iter;
  }
}

// The exact test runs on the in-view edges the bitmask hardware step
// clipped, so the clip must cover each boundary to its end even where
// rendering stops early (a saturated fill, the first probe hit). Each pair
// below is built so that its only boundary crossings (or touch) lie on
// edges a clip that stopped with the rendering would miss; the verdict
// must still equal the exact test.
struct ClipCase {
  const char* name;
  Polygon p;
  Polygon q;
};

// The square [x0, x0 + side] x [y0, y0 + side] with every side cut into
// `pieces` collinear edges: the same region, more in-view edges.
Polygon SplitSquare(double x0, double y0, double side, int pieces) {
  const geom::Point corners[4] = {
      {x0, y0}, {x0 + side, y0}, {x0 + side, y0 + side}, {x0, y0 + side}};
  std::vector<geom::Point> ring;
  for (int c = 0; c < 4; ++c) {
    const geom::Point from = corners[c];
    const geom::Point to = corners[(c + 1) % 4];
    for (int k = 0; k < pieces; ++k) {
      const double t = static_cast<double>(k) / pieces;
      ring.push_back({from.x + (to.x - from.x) * t,
                      from.y + (to.y - from.y) * t});
    }
  }
  return Polygon(std::move(ring));
}

std::vector<ClipCase> ClipSharingCases() {
  std::vector<ClipCase> cases;
  // The snake's first seven edges run through the square and fill the
  // whole 8x8 window; only its later edges (0.5,6.5)-(0.5,10) and
  // (-2,0.5)-(0.5,0.5) cross the square, after the fill saturated. The
  // square's sides are cut into eight pieces each, so it has 16 in-view
  // edges to the snake's 9 and the snake is the side that fills.
  const Polygon snake({{0.5, 0.5}, {7.5, 0.5}, {7.5, 2.5}, {0.5, 2.5},
                       {0.5, 4.5}, {7.5, 4.5}, {7.5, 6.5}, {0.5, 6.5},
                       {0.5, 10}, {-2, 10}, {-2, 0.5}});
  cases.push_back({"saturated fill of p", snake, SplitSquare(0, 0, 8, 8)});
  // Mirrored: q is the shorter side, fills, and saturates.
  cases.push_back({"saturated fill of q", SplitSquare(0, 0, 8, 8), snake});
  // q is a C open to the right; its first in-view edge x = 7.9 shares the
  // window column of p's edge x = 8 without touching it, so the probe hits
  // there; q's later edges cross x = 8.
  cases.push_back({"probe hit on q's first in-view edge", Square(0, 0, 8),
                   Polygon({{7.9, 2}, {7.9, 6}, {10, 6}, {10, 7}, {4, 7},
                            {4, 1}, {10, 1}, {10, 2}})});
  // No edge of p reaches the viewport [6, 8]^2.
  cases.push_back(
      {"no in-view edge of p",
       Polygon({{0, 0}, {10, 0}, {10, 1}, {1, 1}, {1, 10}, {0, 10}}),
       Square(6, 6, 2)});
  // The boundaries meet only at (2, 2), the lower-left corner of the
  // viewport [2, 4]^2; both touching edges of each side only reach the
  // viewport there.
  cases.push_back(
      {"touch at a viewport corner",
       Polygon({{0, 0}, {4, 0}, {4, 1}, {2, 2}, {1, 4}, {0, 4}}),
       Square(2, 2, 4)});
  return cases;
}

TEST(HwIntersectionClipSharingTest, RecordedEdgesKeepTheExactVerdict) {
  HwConfig config = StaticConfig();
  config.resolution = 8;
  const std::vector<ClipCase> cases = ClipSharingCases();
  for (const ClipCase& c : cases) {
    ASSERT_TRUE(algo::IsSimple(c.p)) << c.name;
    ASSERT_TRUE(algo::IsSimple(c.q)) << c.name;
  }

  const auto run = [&](const ClipCase& c) {
    HwIntersectionTester tester(config);
    EXPECT_EQ(tester.Test(c.p, c.q), algo::PolygonsIntersect(c.p, c.q))
        << c.name;
    return tester.counters();
  };
  for (int i : {0, 1}) {
    const HwCounters saturated = run(cases[i]);
    EXPECT_EQ(saturated.fill_saturation_stops, 1) << cases[i].name;
    EXPECT_EQ(saturated.sw_tests, 1) << cases[i].name;
  }
  const HwCounters first_hit = run(cases[2]);
  EXPECT_EQ(first_hit.scan_hit_stops, 1);
  EXPECT_EQ(first_hit.sw_tests, 1);
  const HwCounters empty_side = run(cases[3]);
  EXPECT_EQ(empty_side.hw_rejects, 1);
  EXPECT_EQ(empty_side.sw_tests, 0);
  const HwCounters corner = run(cases[4]);
  EXPECT_EQ(corner.scan_hit_stops, 1);
  EXPECT_EQ(corner.sw_tests, 1);

  // The same pairs on the paths that clip at the exact step instead: no
  // hardware at all, and the faithful backend.
  HwConfig software = config;
  software.enable_hw = false;
  HwConfig faithful = config;
  faithful.backend = HwBackend::kFaithful;
  for (const HwConfig& other : {software, faithful}) {
    HwIntersectionTester tester(other);
    for (const ClipCase& c : cases) {
      EXPECT_EQ(tester.Test(c.p, c.q), algo::PolygonsIntersect(c.p, c.q))
          << c.name << (other.enable_hw ? " (faithful)" : " (software)");
    }
  }
}

TEST(HwIntersectionClipSharingTest, RecordedEdgesBelongToOnePair) {
  // The same two polygon objects, reassigned between calls: the clipped
  // edges of the first pair (triangles with parallel hypotenuses 0.14
  // apart, which share pixels but never meet) must not answer for the
  // second, a crossing pair that sw_threshold routes straight to the
  // exact test.
  HwConfig config = StaticConfig();
  config.sw_threshold = 8;
  HwIntersectionTester tester(config);
  Polygon p({{0, 0}, {2, 0}, {4, 0}, {2, 2}, {0, 4}, {0, 2}});
  Polygon q({{4.2, 0}, {4.2, 4.2}, {0, 4.2}, {2.1, 2.1}});
  EXPECT_FALSE(tester.Test(p, q));
  EXPECT_EQ(tester.counters().sw_tests, 1);  // survived the hardware step
  p = Polygon({{0, 3}, {10, 3}, {10, 5}, {0, 5}});
  q = Polygon({{3, 0}, {5, 0}, {5, 10}, {3, 10}});
  EXPECT_TRUE(tester.Test(p, q));
  EXPECT_EQ(tester.counters().sw_threshold_skips, 1);
}

TEST(HwIntersectionClipSharingTest, ExactStepAllocatesNothingOnceGrown) {
  std::vector<ClipCase> cases = ClipSharingCases();
  // A close-parallel snake pair: ~400 in-view edges a side, so the exact
  // step runs the sweep (above algo::kBruteMaxEdgePairs) on it.
  const Polygon snake = data::GenerateSnakePolygon({0, 0}, 10, 400, 0.3, 5);
  std::vector<geom::Point> shifted(snake.vertices().begin(),
                                  snake.vertices().end());
  for (geom::Point& v : shifted) v = {v.x + 0.02, v.y + 0.02};
  cases.push_back({"snake pair", snake, Polygon(std::move(shifted))});
  HwConfig software;
  software.enable_hw = false;
  for (const HwConfig& config : {StaticConfig(), HwConfig{}, software}) {
    HwIntersectionTester tester(config);
    for (const ClipCase& c : cases) (void)tester.Test(c.p, c.q);
    const int64_t before = g_allocations.load();
    for (const ClipCase& c : cases) (void)tester.Test(c.p, c.q);
    EXPECT_EQ(g_allocations.load() - before, 0)
        << (config.enable_hw ? "hardware" : "software");
  }
}

// The hardware predicate — some pixel covered by both boundaries — is
// symmetric, and the bitmask step fills whichever side has fewer in-view
// edges and skips primitives whose pixel box already decides them. So a
// swapped pair must take the same path through the tester: same verdict,
// same hardware test and reject, same exact test. In a HASJ_PARANOID
// build every reject below is also checked against the exact predicate.
struct SymmetryPairs {
  std::vector<Polygon> polygons;
  std::vector<std::pair<size_t, size_t>> pairs;  // indices into polygons
};

SymmetryPairs MakeSymmetryPairs(uint64_t seed) {
  SymmetryPairs out;
  hasj::Rng rng(seed);
  // Blob and snake pairs around one window: sizes and shapes vary, so
  // either side can be the shorter in-view one.
  for (int iter = 0; iter < 150; ++iter) {
    for (int side = 0; side < 2; ++side) {
      const geom::Point center{rng.Uniform(0, 6), rng.Uniform(0, 6)};
      const int vertices = static_cast<int>(rng.UniformInt(3, 300));
      out.polygons.push_back(
          rng.UniformInt(0, 1) == 0
              ? data::GenerateBlobPolygon(center, rng.Uniform(0.5, 3.0),
                                          vertices, 0.6, rng.Next())
              : data::GenerateSnakePolygon(center, rng.Uniform(1.0, 5.0),
                                           std::max(vertices, 8), 0.3,
                                           rng.Next()));
    }
    out.pairs.push_back({out.polygons.size() - 2, out.polygons.size() - 1});
  }
  // A 200-pair sample of the LANDC x LANDO join's candidates (MBRs meet).
  data::GeneratorProfile landc = data::LandcProfile(0.02);
  data::GeneratorProfile lando = data::LandoProfile(0.02);
  landc.seed ^= seed;
  lando.seed ^= seed + 1;
  const std::vector<Polygon> a = data::GenerateDataset(landc).polygons();
  const std::vector<Polygon> b = data::GenerateDataset(lando).polygons();
  std::vector<std::pair<size_t, size_t>> candidates;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (a[i].Bounds().Intersects(b[j].Bounds())) candidates.push_back({i, j});
    }
  }
  const size_t base = out.polygons.size();
  out.polygons.insert(out.polygons.end(), a.begin(), a.end());
  out.polygons.insert(out.polygons.end(), b.begin(), b.end());
  constexpr size_t kLandPairs = 200;
  EXPECT_GE(candidates.size(), kLandPairs);
  for (size_t k = 0; k < kLandPairs && k < candidates.size(); ++k) {
    const auto& [i, j] = candidates[k * candidates.size() / kLandPairs];
    out.pairs.push_back({base + i, base + a.size() + j});
  }
  return out;
}

TEST(HwIntersectionSymmetryTest, SwappedPairsTakeTheSamePath) {
  const uint64_t seed = TestSeed(1616);
  SCOPED_TRACE(SeedTrace(seed));
  const SymmetryPairs input = MakeSymmetryPairs(seed);
  for (const int resolution : {8, 16}) {
    SCOPED_TRACE(testing::Message() << "res " << resolution);
    HwConfig config = StaticConfig();
    config.resolution = resolution;
    HwIntersectionTester forward(config);
    HwIntersectionTester backward(config);
    int64_t rejects = 0;
    for (const auto& [i, j] : input.pairs) {
      const Polygon& p = input.polygons[i];
      const Polygon& q = input.polygons[j];
      const HwCounters f0 = forward.counters();
      const HwCounters b0 = backward.counters();
      const bool verdict = forward.Test(p, q);
      ASSERT_EQ(verdict, backward.Test(q, p)) << "pair " << i << ", " << j;
      const HwCounters& f = forward.counters();
      const HwCounters& b = backward.counters();
      EXPECT_EQ(f.hw_tests - f0.hw_tests, b.hw_tests - b0.hw_tests);
      EXPECT_EQ(f.hw_rejects - f0.hw_rejects, b.hw_rejects - b0.hw_rejects);
      EXPECT_EQ(f.sw_tests - f0.sw_tests, b.sw_tests - b0.sw_tests);
      rejects += f.hw_rejects - f0.hw_rejects;
    }
    EXPECT_GT(rejects, 0);  // the filter decides some pairs on its own
  }
}

}  // namespace
}  // namespace hasj::core
