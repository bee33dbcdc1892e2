#include "filter/object_filters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algo/polygon_distance.h"
#include "common/random.h"
#include "data/generator.h"

namespace hasj::filter {
namespace {

using geom::Box;
using geom::Polygon;

TEST(ZeroObjectTest, AlignedBoxes) {
  // Unit boxes with a 2-gap between facing sides: the touching points on
  // the facing sides are at most hypot(2, 1) apart.
  EXPECT_DOUBLE_EQ(ZeroObjectUpperBound(Box(0, 0, 1, 1), Box(3, 0, 4, 1)),
                   std::hypot(2.0, 1.0));
}

TEST(ZeroObjectTest, OverlappingBoxesStillPositiveBound) {
  const double ub = ZeroObjectUpperBound(Box(0, 0, 2, 2), Box(1, 1, 3, 3));
  EXPECT_GE(ub, 0.0);
  EXPECT_LE(ub, std::hypot(3.0, 3.0));
}

class ObjectFilterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObjectFilterPropertyTest, BoundsAreValidUpperBounds) {
  hasj::Rng rng(GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    const Polygon a = data::GenerateBlobPolygon(
        {rng.Uniform(0, 12), rng.Uniform(0, 12)}, rng.Uniform(0.5, 2.5),
        static_cast<int>(rng.UniformInt(3, 50)), 0.6, rng.Next());
    const Polygon b = data::GenerateBlobPolygon(
        {rng.Uniform(0, 12), rng.Uniform(0, 12)}, rng.Uniform(0.5, 2.5),
        static_cast<int>(rng.UniformInt(3, 50)), 0.6, rng.Next());
    const double exact = algo::PolygonDistanceBrute(a, b);
    const double ub0 = ZeroObjectUpperBound(a.Bounds(), b.Bounds());
    EXPECT_GE(ub0 + 1e-9, exact) << "0-object iter " << iter;
    const double ub1a = OneObjectUpperBound(a, b.Bounds());
    const double ub1b = OneObjectUpperBound(b, a.Bounds());
    EXPECT_GE(ub1a + 1e-9, exact) << "1-object(a) iter " << iter;
    EXPECT_GE(ub1b + 1e-9, exact) << "1-object(b) iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectFilterPropertyTest,
                         ::testing::Values(51, 52, 53, 54));

TEST(OneObjectTest, MoreSamplesTightenTheBound) {
  hasj::Rng rng(55);
  const Polygon a =
      data::GenerateBlobPolygon({0, 0}, 3.0, 40, 0.5, rng.Next());
  const Box other(6, 0, 8, 2);
  const double coarse = OneObjectUpperBound(a, other, 2);
  const double fine = OneObjectUpperBound(a, other, 32);
  EXPECT_LE(fine, coarse + 1e-12);
}

TEST(OneObjectTest, TighterThanZeroObjectOnThinObjects) {
  // A thin diagonal sliver fills little of its MBR; knowing the real
  // geometry usually tightens the bound. At minimum the 1-object bound must
  // stay valid; check it is also not wildly looser.
  const Polygon sliver({{0, 0}, {4, 3.8}, {4, 4}, {0, 0.2}});
  const Box other(6, 0, 7, 1);
  const double ub1 = OneObjectUpperBound(sliver, other, 9);
  const double exact = algo::PolygonDistanceBrute(
      sliver, Polygon({{6, 0}, {7, 0}, {7, 1}, {6, 1}}));
  EXPECT_GE(ub1 + 1e-9, exact);
}

// OneObjectWithin must decide exactly what the bound decides, including
// at d equal to the bound and one ulp either side of it: its early stops
// rest on IEEE addition being monotone, not on any slack.
TEST(OneObjectWithinTest, MatchesTheBoundAtEveryDistance) {
  hasj::Rng rng(56);
  int within = 0;
  int cases = 0;
  for (int iter = 0; iter < 600; ++iter) {
    // Blobs and snakes from 3 to 300 vertices, so the strided edge subset
    // (above 64 edges) is exercised too.
    const geom::Point c{rng.Uniform(0, 12), rng.Uniform(0, 12)};
    const Polygon p =
        rng.Bernoulli(0.3)
            ? data::GenerateSnakePolygon(
                  c, rng.Uniform(0.5, 3.0),
                  static_cast<int>(rng.UniformInt(8, 300)), 0.25, rng.Next())
            : data::GenerateBlobPolygon(
                  c, rng.Uniform(0.5, 3.0),
                  static_cast<int>(rng.UniformInt(3, 300)), 0.6, rng.Next());
    // Boxes near, around and far from p, degenerate ones included.
    const double x0 = rng.Uniform(-4, 16);
    const double y0 = rng.Uniform(-4, 16);
    const double w = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0, 6);
    const double h = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0, 6);
    const Box mbr(x0, y0, x0 + w, y0 + h);
    for (const int samples : {2, 5, 9}) {
      const double bound = OneObjectUpperBound(p, mbr, samples);
      const double inf = std::numeric_limits<double>::infinity();
      for (const double d :
           {bound, std::nextafter(bound, -inf), std::nextafter(bound, inf),
            rng.Uniform(0, 2 * bound), 0.0}) {
        const bool want = bound <= d;
        ASSERT_EQ(OneObjectWithin(p, mbr, d, samples), want)
            << "iter " << iter << " samples " << samples << std::hexfloat
            << " d " << d << " bound " << bound;
        within += want ? 1 : 0;
        ++cases;
      }
    }
  }
  // Both verdicts occur often.
  EXPECT_GT(within, cases / 4);
  EXPECT_LT(within, cases * 3 / 4);
}

}  // namespace
}  // namespace hasj::filter
