// Cross-pipeline consistency: the same predicate evaluated through
// different pipelines must produce the same answers — joins vs per-object
// selections, intersection join at d=0 vs distance join, and repeated runs
// of the same pipeline object (cache warm-up must not change results).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/distance_join.h"
#include "core/distance_selection.h"
#include "core/join.h"
#include "core/selection.h"
#include "data/generator.h"

namespace hasj::core {
namespace {

data::Dataset MakeDataset(uint64_t seed, int count, double snake_fraction) {
  data::GeneratorProfile p;
  p.name = "xchk";
  p.count = count;
  p.mean_vertices = 20;
  p.max_vertices = 90;
  p.extent = geom::Box(0, 0, 70, 70);
  p.coverage = 0.6;
  p.snake_fraction = snake_fraction;
  p.seed = seed;
  return data::GenerateDataset(p);
}

TEST(PipelineCrossCheckTest, JoinEqualsSelectionPerQuery) {
  const data::Dataset a = MakeDataset(881, 90, 0.3);
  const data::Dataset b = MakeDataset(882, 70, 0.3);
  const IntersectionJoin join(a, b);
  const JoinResult joined = join.Run();

  // For every b-object as a selection query over dataset a, the selected
  // ids must equal the join pairs with that b id.
  const IntersectionSelection selection(a);
  std::set<std::pair<int64_t, int64_t>> join_pairs(joined.pairs.begin(),
                                                   joined.pairs.end());
  std::set<std::pair<int64_t, int64_t>> selection_pairs;
  for (size_t j = 0; j < b.size(); ++j) {
    const SelectionResult r = selection.Run(b.polygon(j));
    for (int64_t i : r.ids) {
      selection_pairs.insert({i, static_cast<int64_t>(j)});
    }
  }
  EXPECT_EQ(join_pairs, selection_pairs);
}

TEST(PipelineCrossCheckTest, DistanceJoinAtZeroEqualsIntersectionJoin) {
  const data::Dataset a = MakeDataset(883, 80, 0.5);
  const data::Dataset b = MakeDataset(884, 80, 0.5);
  auto inter = IntersectionJoin(a, b).Run().pairs;
  auto dist = WithinDistanceJoin(a, b).Run(0.0).pairs;
  std::sort(inter.begin(), inter.end());
  std::sort(dist.begin(), dist.end());
  EXPECT_EQ(inter, dist);
}

TEST(PipelineCrossCheckTest, DistanceSelectionEqualsDistanceJoinColumn) {
  const data::Dataset a = MakeDataset(885, 100, 0.4);
  const data::Dataset b = MakeDataset(886, 5, 0.0);
  const double d = 3.0;
  auto joined = WithinDistanceJoin(a, b).Run(d).pairs;
  const WithinDistanceSelection selection(a);
  std::set<std::pair<int64_t, int64_t>> join_pairs(joined.begin(),
                                                   joined.end());
  std::set<std::pair<int64_t, int64_t>> sel_pairs;
  for (size_t j = 0; j < b.size(); ++j) {
    for (int64_t i : selection.Run(b.polygon(j), d).ids) {
      sel_pairs.insert({i, static_cast<int64_t>(j)});
    }
  }
  EXPECT_EQ(join_pairs, sel_pairs);
}

TEST(PipelineCrossCheckTest, RepeatedRunsAreDeterministic) {
  const data::Dataset a = MakeDataset(887, 60, 0.5);
  const data::Dataset b = MakeDataset(888, 60, 0.5);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.use_hw = true;
  options.hw.use_intervals = true;
  const JoinResult first = join.Run(options);
  const JoinResult second = join.Run(options);  // caches warm
  EXPECT_EQ(first.pairs, second.pairs);
  EXPECT_EQ(first.counts.candidates, second.counts.candidates);
  EXPECT_EQ(first.hw_counters.hw_rejects, second.hw_counters.hw_rejects);
}

TEST(PipelineCrossCheckTest, SymmetricJoinArguments) {
  const data::Dataset a = MakeDataset(889, 70, 0.4);
  const data::Dataset b = MakeDataset(890, 70, 0.4);
  auto ab = IntersectionJoin(a, b).Run().pairs;
  auto ba = IntersectionJoin(b, a).Run().pairs;
  std::set<std::pair<int64_t, int64_t>> ab_set(ab.begin(), ab.end());
  std::set<std::pair<int64_t, int64_t>> ba_flipped;
  for (const auto& [i, j] : ba) ba_flipped.insert({j, i});
  EXPECT_EQ(ab_set, ba_flipped);
}

}  // namespace
}  // namespace hasj::core
