#include "core/join.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/polygon_intersect.h"
#include "data/generator.h"

namespace hasj::core {
namespace {

data::Dataset MakeDataset(uint64_t seed, int count, double coverage) {
  data::GeneratorProfile p;
  p.name = "join";
  p.count = count;
  p.mean_vertices = 20;
  p.max_vertices = 100;
  p.extent = geom::Box(0, 0, 60, 60);
  p.coverage = coverage;
  p.seed = seed;
  return data::GenerateDataset(p);
}

std::vector<std::pair<int64_t, int64_t>> NaiveJoin(const data::Dataset& a,
                                                   const data::Dataset& b) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (algo::PolygonsIntersect(a.polygon(i), b.polygon(j))) {
        out.emplace_back(static_cast<int64_t>(i), static_cast<int64_t>(j));
      }
    }
  }
  return out;
}

std::vector<std::pair<int64_t, int64_t>> Sorted(
    std::vector<std::pair<int64_t, int64_t>> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(JoinTest, MatchesNaiveNestedLoop) {
  const data::Dataset a = MakeDataset(101, 120, 0.7);
  const data::Dataset b = MakeDataset(102, 150, 0.7);
  const IntersectionJoin join(a, b);
  const JoinResult r = join.Run();
  const auto expected = NaiveJoin(a, b);
  EXPECT_EQ(Sorted(r.pairs), expected);
  EXPECT_GT(r.counts.results, 0);
  EXPECT_GE(r.counts.candidates, r.counts.results);
  EXPECT_EQ(r.counts.compared, r.counts.candidates);
}

class JoinConfigTest : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(JoinConfigTest, HardwareConfigDoesNotChangeResults) {
  const auto [use_hw, sw_threshold] = GetParam();
  const data::Dataset a = MakeDataset(103, 100, 0.8);
  const data::Dataset b = MakeDataset(104, 100, 0.8);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.use_hw = use_hw;
  options.hw.sw_threshold = sw_threshold;
  const JoinResult r = join.Run(options);
  EXPECT_EQ(Sorted(r.pairs), NaiveJoin(a, b));
}

INSTANTIATE_TEST_SUITE_P(Configs, JoinConfigTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(0, 60, 100000)));

TEST(JoinTest, HwFilterActuallyRejects) {
  const data::Dataset a = MakeDataset(105, 150, 0.5);
  const data::Dataset b = MakeDataset(106, 150, 0.5);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.use_hw = true;
  options.hw.resolution = 16;
  const JoinResult r = join.Run(options);
  EXPECT_GT(r.hw_counters.hw_rejects, 0);
  EXPECT_EQ(r.hw_counters.tests, r.counts.compared);
  // Every hardware test either rejects or hands off to software.
  EXPECT_EQ(r.hw_counters.hw_rejects + r.hw_counters.sw_tests,
            r.hw_counters.hw_tests);
  // Time accounting is populated.
  EXPECT_GT(r.hw_counters.hw_ms, 0.0);
}

TEST(JoinTest, DisjointDatasetsProduceNothing) {
  data::GeneratorProfile pa;
  pa.name = "left";
  pa.count = 30;
  pa.mean_vertices = 10;
  pa.max_vertices = 30;
  pa.extent = geom::Box(0, 0, 10, 10);
  pa.seed = 107;
  data::GeneratorProfile pb = pa;
  pb.name = "right";
  pb.extent = geom::Box(1000, 1000, 1010, 1010);
  pb.seed = 108;
  const data::Dataset a = data::GenerateDataset(pa);
  const data::Dataset b = data::GenerateDataset(pb);
  const JoinResult r = IntersectionJoin(a, b).Run();
  EXPECT_TRUE(r.pairs.empty());
  EXPECT_EQ(r.counts.candidates, 0);
}

}  // namespace
}  // namespace hasj::core
