// Conservativeness-oracle tests (DESIGN.md §6): a clean sweep over random
// pairs through every hardware tester (in a HASJ_PARANOID build each
// hardware reject cross-checks itself on the hot path), direct oracle
// calls on known-good and known-contradictory inputs, and the negative
// test — a seeded coverage bug injected into the rasterizer must be caught
// as a conservativeness violation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/polygon_distance.h"
#include "algo/polygon_intersect.h"
#include "common/random.h"
#include "core/hw_distance.h"
#include "core/hw_filled.h"
#include "core/hw_intersection.h"
#include "core/hw_nearest.h"
#include "core/paranoid.h"
#include "data/generator.h"
#include "glsim/raster.h"

namespace hasj {
namespace {

using geom::Point;
using geom::Polygon;

// Captures oracle reports instead of aborting; restores the default
// print-and-abort handler and the rasterizer fault flag on scope exit.
class ViolationCapture {
 public:
  ViolationCapture() {
    core::paranoid::SetViolationHandlerForTest(
        [this](const std::string& dump) { dumps_.push_back(dump); });
  }
  ~ViolationCapture() {
    core::paranoid::SetViolationHandlerForTest(nullptr);
    glsim::raster_internal::TestCoverageShrink() = false;
  }
  const std::vector<std::string>& dumps() const { return dumps_; }

 private:
  std::vector<std::string> dumps_;
};

Polygon RandomBlob(Rng& rng) {
  return data::GenerateBlobPolygon(
      {rng.Uniform(0, 8), rng.Uniform(0, 8)}, rng.Uniform(0.5, 3.0),
      static_cast<int>(rng.UniformInt(3, 50)), 0.6, rng.Next());
}

// In a HASJ_PARANOID build every hardware reject below re-runs the exact
// predicate on the hot path; in a normal build the sweep still verifies
// the testers against the exact answers. Either way: no violations.
TEST(StressParanoidTest, CleanSweepHasNoViolations) {
  ViolationCapture capture;
  core::HwConfig static_plan;
  static_plan.routing = core::HwRouting::kStatic;
  core::HwIntersectionTester intersect(static_plan);
  core::HwDistanceTester within;
  core::HwFilledIntersectionTester filled;
  Rng rng(6001);
  for (int iter = 0; iter < 80; ++iter) {
    const Polygon a = RandomBlob(rng);
    const Polygon b = RandomBlob(rng);
    EXPECT_EQ(intersect.Test(a, b), algo::PolygonsIntersect(a, b))
        << "iter " << iter;
    EXPECT_EQ(filled.Test(a, b), algo::PolygonsIntersect(a, b))
        << "iter " << iter;
    const double d = rng.Uniform(0.0, 2.0);
    EXPECT_EQ(within.Test(a, b, d), algo::WithinDistance(a, b, d))
        << "iter " << iter;
  }
  // The sweep must actually have exercised the oracle's call sites.
  EXPECT_GT(intersect.counters().hw_rejects, 0);
  EXPECT_GT(filled.counters().hw_rejects, 0);
  EXPECT_TRUE(capture.dumps().empty());
}

TEST(StressParanoidTest, NearestRefinementMatchesBruteForce) {
  ViolationCapture capture;
  Rng rng(6007);
  std::vector<Point> sites;
  for (int i = 0; i < 200; ++i) {
    sites.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const core::HwNearestNeighbor nn(sites, 32);
  for (int iter = 0; iter < 200; ++iter) {
    const Point q{rng.Uniform(-1, 11), rng.Uniform(-1, 11)};
    // Direct oracle call: cross-checks Query() in every build config.
    core::paranoid::CheckNearestResult(sites, q, nn.Query(q));
  }
  EXPECT_TRUE(capture.dumps().empty());
}

TEST(StressParanoidTest, OracleAcceptsGenuineRejects) {
  ViolationCapture capture;
  const Polygon a({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  const Polygon b({{5, 5}, {6, 5}, {6, 6}, {5, 6}});
  const geom::Box viewport(0, 0, 6, 6);
  const core::HwConfig config;
  core::paranoid::CheckIntersectionReject(a, b, viewport, config);
  core::paranoid::CheckFilledReject(a, b, viewport, config);
  core::paranoid::CheckDistanceReject(a, b, 1.0, viewport, config.line_width,
                                      config);
  core::paranoid::CheckNearestResult({{0, 0}, {4, 4}}, {1, 1}, 0);
  EXPECT_TRUE(capture.dumps().empty());
}

TEST(StressParanoidTest, OracleReportsContradictionWithRenderedDump) {
  ViolationCapture capture;
  const Polygon a({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  const Polygon b({{2, 2}, {6, 2}, {6, 6}, {2, 6}});  // crosses a
  const geom::Box viewport = a.Bounds().Intersection(b.Bounds());
  core::paranoid::CheckIntersectionReject(a, b, viewport, core::HwConfig{});
  ASSERT_EQ(capture.dumps().size(), 1u);
  const std::string& dump = capture.dumps()[0];
  EXPECT_NE(dump.find("CONSERVATIVENESS VIOLATION"), std::string::npos);
  EXPECT_NE(dump.find("hw_intersection"), std::string::npos);
  EXPECT_NE(dump.find("POLYGON"), std::string::npos);  // WKT of the pair
  // The rendered masks share a pixel (the rasterizer is healthy here), so
  // the art shows the overlap the hypothetical filter claimed not to see.
  EXPECT_NE(dump.find('X'), std::string::npos);
}

TEST(StressParanoidTest, OracleReportsWrongNearestSite) {
  ViolationCapture capture;
  core::paranoid::CheckNearestResult({{0, 0}, {4, 4}}, {1, 1}, 1);
  ASSERT_EQ(capture.dumps().size(), 1u);
  EXPECT_NE(capture.dumps()[0].find("CONSERVATIVENESS VIOLATION"),
            std::string::npos);
  EXPECT_NE(capture.dumps()[0].find("hw_nearest"), std::string::npos);
}

// The acceptance gate for the oracle: seed a coverage bug (every row span
// shrinks by 0.75 px per end, so a √2-wide boundary line vanishes) and
// verify the resulting false reject is caught. The thin "plus" pair
// crosses near the corners of the MBR-intersection viewport; with the bug
// injected the first mask keeps no pixel and the filter wrongly rejects an
// intersecting pair.
TEST(StressParanoidTest, InjectedCoverageBugIsCaught) {
  ViolationCapture capture;  // also clears the fault flag on exit
  const Polygon vertical({{4.9, 0}, {5.1, 0}, {5.1, 10}, {4.9, 10}});
  const Polygon horizontal({{0, 4.9}, {10, 4.9}, {10, 5.1}, {0, 5.1}});
  ASSERT_TRUE(algo::BoundariesIntersect(vertical, horizontal));

  core::HwConfig static_plan;
  static_plan.routing = core::HwRouting::kStatic;
  core::HwIntersectionTester tester(static_plan);
  glsim::raster_internal::TestCoverageShrink() = true;
  const bool hw_says = tester.Test(vertical, horizontal);
  glsim::raster_internal::TestCoverageShrink() = false;
  EXPECT_FALSE(hw_says);  // the injected bug broke exactness
  ASSERT_EQ(tester.counters().hw_rejects, 1);
#if !HASJ_PARANOID
  // A normal build does not self-check on the hot path; invoke the oracle
  // exactly the way the HASJ_PARANOID reject site does.
  core::paranoid::CheckIntersectionReject(
      vertical, horizontal,
      vertical.Bounds().Intersection(horizontal.Bounds()), tester.config());
#endif
  ASSERT_FALSE(capture.dumps().empty());
  EXPECT_NE(capture.dumps()[0].find("CONSERVATIVENESS VIOLATION"),
            std::string::npos);
}

}  // namespace
}  // namespace hasj
