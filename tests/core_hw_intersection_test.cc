#include "core/hw_intersection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "algo/polygon_intersect.h"
#include "algo/simplicity.h"
#include "common/fault.h"
#include "common/random.h"
#include "core/batch_tester.h"
#include "data/generator.h"

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
  HwConfig config;
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
  HwConfig config;
  config.sw_threshold = 100;
  HwIntersectionTester tester(config);
  // Crossing pair that reaches the segment-test stage.
  const Polygon horizontal({{0, 3}, {10, 3}, {10, 5}, {0, 5}});
  const Polygon vertical({{3, 0}, {5, 0}, {5, 10}, {3, 10}});
  EXPECT_TRUE(tester.Test(horizontal, vertical));
  EXPECT_EQ(tester.counters().hw_tests, 0);
  EXPECT_EQ(tester.counters().sw_threshold_skips, 1);
}

// The headline property: the hardware-assisted test is exact at every
// resolution and with every backend, because the hardware stage is a
// conservative filter. Any disagreement with the software test is a bug.
class HwIntersectionExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, HwBackend, uint64_t>> {};

TEST_P(HwIntersectionExactnessTest, AgreesWithSoftware) {
  const auto [resolution, backend, seed] = GetParam();
  HwConfig config;
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
  HwConfig faithful;
  faithful.backend = HwBackend::kFaithful;
  HwConfig bitmask;
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
  HwConfig minmax;
  minmax.use_minmax = true;
  HwConfig readback;
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
  HwIntersectionTester tester;
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
      HwConfig config;
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
      HwConfig config;
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
      HwConfig config;
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
  HwIntersectionTester tester;
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
// recorded, so recording must cover each boundary to its end even where
// rendering stopped early. Each pair below is built so that its only
// boundary crossings (or touch) lie on edges a recording that stopped with
// the rendering would miss; the verdict must still equal the exact test.
struct ClipCase {
  const char* name;
  Polygon p;
  Polygon q;
};

std::vector<ClipCase> ClipSharingCases() {
  std::vector<ClipCase> cases;
  // p's first seven edges snake through q's square and fill the whole 8x8
  // window; only the later edges (0.5,6.5)-(0.5,10) and (-2,0.5)-(0.5,0.5)
  // cross q, after the fill saturated.
  cases.push_back(
      {"saturated fill",
       Polygon({{0.5, 0.5}, {7.5, 0.5}, {7.5, 2.5}, {0.5, 2.5}, {0.5, 4.5},
                {7.5, 4.5}, {7.5, 6.5}, {0.5, 6.5}, {0.5, 10}, {-2, 10},
                {-2, 0.5}}),
       Square(0, 0, 8)});
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
  HwConfig config;
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
  const HwCounters saturated = run(cases[0]);
  EXPECT_EQ(saturated.fill_saturation_stops, 1);
  EXPECT_EQ(saturated.sw_tests, 1);
  const HwCounters first_hit = run(cases[1]);
  EXPECT_EQ(first_hit.scan_hit_stops, 1);
  EXPECT_EQ(first_hit.sw_tests, 1);
  const HwCounters empty_side = run(cases[2]);
  EXPECT_EQ(empty_side.hw_rejects, 1);
  EXPECT_EQ(empty_side.sw_tests, 0);
  const HwCounters corner = run(cases[3]);
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

TEST(HwIntersectionClipSharingTest, BatchedPerPairRetryMixesRecordedPairs) {
  // Every atlas fill faults, so each kHardware pair retries through the
  // per-pair HwStep; every second per-pair scan faults too, after p's
  // edges were recorded, and falls back to the exact test. A small
  // crossing pair skips the hardware (sw_threshold) and is interleaved with
  // every case, each pair twice. One tester thus runs recorded, partly
  // recorded and unrecorded pairs, repeats included, in one batch.
  std::vector<ClipCase> cases = ClipSharingCases();
  hasj::Rng rng(4242);
  for (int iter = 0; iter < 60; ++iter) {
    const auto blob = [&] {
      return data::GenerateBlobPolygon(
          {rng.Uniform(0, 6), rng.Uniform(0, 6)}, rng.Uniform(0.5, 3.0),
          static_cast<int>(rng.UniformInt(3, 60)), 0.6, rng.Next());
    };
    Polygon a = blob();
    cases.push_back({"blob", std::move(a), blob()});
  }
  const Polygon horizontal({{0, 3}, {10, 3}, {10, 5}, {0, 5}});
  const Polygon vertical({{3, 0}, {5, 0}, {5, 10}, {3, 10}});
  std::vector<PolygonPair> pairs;
  for (const ClipCase& c : cases) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      pairs.push_back({&horizontal, &vertical});
      pairs.push_back({&c.p, &c.q});
    }
  }

  FaultInjector faults(7);
  faults.SetPlan(FaultSite::kBatchFill, FaultPlan::Probability(1.0));
  faults.SetPlan(FaultSite::kScanReadback, FaultPlan::EveryNth(2));
  HwConfig config;
  config.use_batching = true;
  config.batch_size = 32;
  config.sw_threshold = 8;  // the small pair only: every case is kHardware
  config.faults = &faults;
  BatchHardwareTester tester(config);
  std::vector<uint8_t> verdicts(pairs.size(), 0);
  tester.TestIntersectionBatch(pairs, verdicts.data());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(verdicts[i] != 0,
              algo::PolygonsIntersect(*pairs[i].first, *pairs[i].second))
        << "pair " << i;
  }
  const HwCounters counters = tester.counters();
  EXPECT_EQ(counters.batch.batches, 0);
  EXPECT_GT(counters.hw_tests, 0);
  EXPECT_GT(counters.hw_fallback_pairs, 0);
  EXPECT_GT(counters.sw_threshold_skips, 0);
  EXPECT_GT(counters.sw_tests, 0);
}

TEST(HwIntersectionClipSharingTest, RecordedEdgesBelongToOnePair) {
  // The same two polygon objects, reassigned between calls: the recorded
  // edges of the first pair (triangles with parallel hypotenuses 0.14
  // apart, which share pixels but never meet) must not answer for the
  // second, a crossing pair that sw_threshold routes straight to the
  // exact test.
  HwConfig config;
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
  std::vector<geom::Point> shifted = snake.vertices();
  for (geom::Point& v : shifted) v = {v.x + 0.02, v.y + 0.02};
  cases.push_back({"snake pair", snake, Polygon(std::move(shifted))});
  HwConfig software;
  software.enable_hw = false;
  for (const HwConfig& config : {HwConfig{}, software}) {
    HwIntersectionTester tester(config);
    for (const ClipCase& c : cases) (void)tester.Test(c.p, c.q);
    const int64_t before = g_allocations.load();
    for (const ClipCase& c : cases) (void)tester.Test(c.p, c.q);
    EXPECT_EQ(g_allocations.load() - before, 0)
        << (config.enable_hw ? "hardware" : "software");
  }
}

}  // namespace
}  // namespace hasj::core
