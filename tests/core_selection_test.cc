#include "core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/polygon_intersect.h"
#include "common/random.h"
#include "data/generator.h"

namespace hasj::core {
namespace {

using geom::Polygon;

data::Dataset MakeDataset(uint64_t seed, int count) {
  data::GeneratorProfile p;
  p.name = "sel";
  p.count = count;
  p.mean_vertices = 25;
  p.max_vertices = 120;
  p.extent = geom::Box(0, 0, 100, 100);
  p.coverage = 0.8;
  p.seed = seed;
  return data::GenerateDataset(p);
}

std::vector<int64_t> NaiveSelection(const data::Dataset& ds,
                                    const Polygon& query) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (algo::PolygonsIntersect(ds.polygon(i), query)) {
      out.push_back(static_cast<int64_t>(i));
    }
  }
  return out;
}

std::vector<int64_t> Sorted(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(SelectionTest, MatchesNaiveScan) {
  const data::Dataset ds = MakeDataset(11, 300);
  const IntersectionSelection selection(ds);
  const Polygon query =
      data::GenerateBlobPolygon({50, 50}, 20, 40, 0.5, 4242);
  const SelectionResult result = selection.Run(query);
  EXPECT_EQ(Sorted(result.ids), NaiveSelection(ds, query));
  EXPECT_GT(result.counts.candidates, 0);
  EXPECT_GE(result.counts.candidates, result.counts.results);
}

class SelectionConfigTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SelectionConfigTest, ResultsInvariantUnderConfiguration) {
  const auto [tiling_level, use_hw] = GetParam();
  const data::Dataset ds = MakeDataset(13, 250);
  const IntersectionSelection selection(ds);
  hasj::Rng rng(17);
  for (int q = 0; q < 5; ++q) {
    const Polygon query = data::GenerateBlobPolygon(
        {rng.Uniform(20, 80), rng.Uniform(20, 80)}, rng.Uniform(5, 25),
        static_cast<int>(rng.UniformInt(6, 60)), 0.5, rng.Next());
    SelectionOptions options;
    options.interior_tiling_level = tiling_level;
    options.use_hw = use_hw;
    const SelectionResult result = selection.Run(query, options);
    EXPECT_EQ(Sorted(result.ids), NaiveSelection(ds, query)) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SelectionConfigTest,
    ::testing::Combine(::testing::Values(-1, 0, 2, 4, 6), ::testing::Bool()));

TEST(SelectionTest, InteriorFilterShortCircuitsContainedObjects) {
  // A giant query containing everything: a high tiling level identifies
  // most objects without geometry comparison.
  const data::Dataset ds = MakeDataset(19, 200);
  const IntersectionSelection selection(ds);
  const Polygon query =
      data::GenerateBlobPolygon({50, 50}, 200, 64, 0.2, 99);
  SelectionOptions with_filter;
  with_filter.interior_tiling_level = 5;
  const SelectionResult r = selection.Run(query, with_filter);
  EXPECT_GT(r.counts.filter_hits, 0);
  EXPECT_EQ(r.counts.filter_hits + r.counts.compared, r.counts.candidates);
  EXPECT_EQ(Sorted(r.ids), NaiveSelection(ds, query));
}

TEST(SelectionTest, CostsArePopulated) {
  const data::Dataset ds = MakeDataset(23, 100);
  const IntersectionSelection selection(ds);
  const Polygon query = data::GenerateBlobPolygon({50, 50}, 30, 30, 0.5, 7);
  SelectionOptions options;
  options.interior_tiling_level = 3;
  const SelectionResult r = selection.Run(query, options);
  EXPECT_GE(r.costs.mbr_ms, 0.0);
  EXPECT_GE(r.costs.filter_ms, 0.0);
  EXPECT_GE(r.costs.compare_ms, 0.0);
  EXPECT_GE(r.costs.total_ms(),
            r.costs.mbr_ms);  // total is the sum of the parts
}

TEST(SelectionTest, HwCountersExposed) {
  const data::Dataset ds = MakeDataset(29, 150);
  const IntersectionSelection selection(ds);
  const Polygon query = data::GenerateBlobPolygon({50, 50}, 25, 50, 0.5, 3);
  SelectionOptions options;
  options.use_hw = true;
  const SelectionResult r = selection.Run(query, options);
  EXPECT_EQ(r.hw_counters.tests, r.counts.compared);
}

TEST(SelectionTest, EmptyQueryRegionsYieldNothing) {
  const data::Dataset ds = MakeDataset(31, 50);
  const IntersectionSelection selection(ds);
  const Polygon query =
      data::GenerateBlobPolygon({500, 500}, 5, 20, 0.5, 1);  // far away
  const SelectionResult r = selection.Run(query);
  EXPECT_TRUE(r.ids.empty());
  EXPECT_EQ(r.counts.candidates, 0);
}

}  // namespace
}  // namespace hasj::core
