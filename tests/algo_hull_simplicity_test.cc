#include <gtest/gtest.h>

#include "algo/simplicity.h"
#include "common/random.h"
#include "data/generator.h"

namespace hasj::algo {
namespace {

using geom::Polygon;

TEST(IsSimpleTest, BasicShapes) {
  EXPECT_TRUE(IsSimple(Polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}})));
  EXPECT_TRUE(
      IsSimple(Polygon({{0, 0}, {3, 0}, {3, 1}, {1, 1}, {1, 3}, {0, 3}})));
}

TEST(IsSimpleTest, RejectsBowtie) {
  EXPECT_FALSE(IsSimple(Polygon({{0, 0}, {2, 2}, {2, 0}, {0, 2}})));
}

TEST(IsSimpleTest, RejectsSpike) {
  // Edge (2,0)-(1,0) folds back onto (0,0)-(2,0).
  EXPECT_FALSE(IsSimple(Polygon({{0, 0}, {2, 0}, {1, 0}, {1, 1}})));
}

TEST(IsSimpleTest, RejectsSelfTouchingVertex) {
  // Figure-eight sharing the middle vertex: vertex (1,1) has degree 4.
  EXPECT_FALSE(IsSimple(
      Polygon({{0, 0}, {1, 1}, {2, 0}, {2, 2}, {1, 1}, {0, 2}})));
}

TEST(IsSimpleTest, RejectsDegenerate) {
  EXPECT_FALSE(IsSimple(Polygon({{0, 0}, {1, 0}})));
  EXPECT_FALSE(IsSimple(Polygon({{0, 0}, {1, 1}, {2, 2}})));  // zero area
}

TEST(IsSimplePropertyTest, GeneratedBlobsAreSimple) {
  hasj::Rng rng(43);
  for (int iter = 0; iter < 60; ++iter) {
    const Polygon blob = data::GenerateBlobPolygon(
        {0, 0}, rng.Uniform(0.1, 10.0),
        static_cast<int>(rng.UniformInt(3, 120)), rng.Uniform(0.0, 0.9),
        rng.Next());
    EXPECT_TRUE(IsSimple(blob)) << "iter " << iter;
  }
}

}  // namespace
}  // namespace hasj::algo
