// Thread-count invariance of the four query pipelines: results (in order),
// stage counts, and aggregate hardware counters must be identical whether
// the geometry-comparison stage runs serially or on N worker threads, and
// the lazily-built interval caches must stay correct when the grid changes
// between runs or runs execute concurrently.
//
// scripts/check_tsan.sh runs this file under -fsanitize=thread.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/distance_join.h"
#include "core/distance_selection.h"
#include "core/join.h"
#include "core/selection.h"
#include "data/generator.h"

namespace hasj::core {
namespace {

data::Dataset MakeDataset(uint64_t seed, int count) {
  data::GeneratorProfile p;
  p.name = "par";
  p.count = count;
  p.mean_vertices = 24;
  p.max_vertices = 110;
  p.extent = geom::Box(0, 0, 60, 60);
  p.coverage = 0.65;
  p.snake_fraction = 0.4;
  p.seed = seed;
  return data::GenerateDataset(p);
}

// The integer counters are scheduling-independent; the *_ms fields are
// per-worker wall time and legitimately vary, so only the totals compare.
void ExpectSameCounters(const HwCounters& want, const HwCounters& got) {
  EXPECT_EQ(want.tests, got.tests);
  EXPECT_EQ(want.pip_hits, got.pip_hits);
  EXPECT_EQ(want.sw_threshold_skips, got.sw_threshold_skips);
  EXPECT_EQ(want.hw_tests, got.hw_tests);
  EXPECT_EQ(want.hw_rejects, got.hw_rejects);
  EXPECT_EQ(want.sw_tests, got.sw_tests);
  EXPECT_EQ(want.width_fallbacks, got.width_fallbacks);
}

void ExpectSameCounts(const StageCounts& want, const StageCounts& got) {
  EXPECT_EQ(want.candidates, got.candidates);
  EXPECT_EQ(want.filter_hits, got.filter_hits);
  EXPECT_EQ(want.compared, got.compared);
  EXPECT_EQ(want.results, got.results);
}

struct SelectionCase {
  const char* name;
  SelectionOptions options;
};

std::vector<SelectionCase> SelectionCases() {
  std::vector<SelectionCase> cases;
  {
    SelectionOptions o;
    o.use_hw = true;
    cases.push_back({"hw", o});
  }
  {
    SelectionOptions o;
    o.use_hw = true;
    o.hw.use_intervals = true;
    o.hw.interval_grid_bits = 8;
    o.interior_tiling_level = 3;
    cases.push_back({"hw_intervals_interior", o});
  }
  {
    SelectionOptions o;
    o.use_hw = false;
    o.hw.use_intervals = true;
    o.hw.interval_grid_bits = 10;
    cases.push_back({"sw_intervals", o});
  }
  return cases;
}

TEST(ParallelRefinementTest, SelectionThreadCountInvariance) {
  const data::Dataset data = MakeDataset(4201, 130);
  const data::Dataset queries = MakeDataset(4202, 6);
  const IntersectionSelection selection(data);
  for (auto kase : SelectionCases()) {
    for (size_t q = 0; q < queries.size(); ++q) {
      kase.options.num_threads = 1;
      const SelectionResult serial = selection.Run(queries.polygon(q),
                                                   kase.options);
      for (int threads : {2, 8}) {
        kase.options.num_threads = threads;
        const SelectionResult parallel = selection.Run(queries.polygon(q),
                                                       kase.options);
        SCOPED_TRACE(std::string(kase.name) + " query " + std::to_string(q) +
                     " threads " + std::to_string(threads));
        EXPECT_EQ(serial.ids, parallel.ids);  // same order, not just same set
        ExpectSameCounts(serial.counts, parallel.counts);
        ExpectSameCounters(serial.hw_counters, parallel.hw_counters);
        EXPECT_EQ(serial.interval_hits, parallel.interval_hits);
        EXPECT_EQ(serial.interval_misses, parallel.interval_misses);
      }
    }
  }
}

TEST(ParallelRefinementTest, JoinThreadCountInvariance) {
  const data::Dataset a = MakeDataset(4203, 110);
  const data::Dataset b = MakeDataset(4204, 90);
  const IntersectionJoin join(a, b);
  for (bool use_hw : {true, false}) {
    for (bool intervals : {false, true}) {
      JoinOptions options;
      options.use_hw = use_hw;
      options.hw.use_intervals = intervals;
      options.hw.interval_grid_bits = 8;
      options.num_threads = 1;
      const JoinResult serial = join.Run(options);
      for (int threads : {2, 8}) {
        options.num_threads = threads;
        const JoinResult parallel = join.Run(options);
        SCOPED_TRACE(std::string(use_hw ? "hw" : "sw") +
                     (intervals ? " intervals" : "") + " threads " +
                     std::to_string(threads));
        EXPECT_EQ(serial.pairs, parallel.pairs);
        ExpectSameCounts(serial.counts, parallel.counts);
        ExpectSameCounters(serial.hw_counters, parallel.hw_counters);
        EXPECT_EQ(serial.interval_hits, parallel.interval_hits);
        EXPECT_EQ(serial.interval_misses, parallel.interval_misses);
      }
    }
  }
}

TEST(ParallelRefinementTest, DistanceSelectionThreadCountInvariance) {
  const data::Dataset data = MakeDataset(4205, 130);
  const data::Dataset queries = MakeDataset(4206, 4);
  const WithinDistanceSelection selection(data);
  const double d = 2.5;
  for (bool use_hw : {true, false}) {
    DistanceSelectionOptions options;
    options.use_hw = use_hw;
    options.num_threads = 1;
    for (size_t q = 0; q < queries.size(); ++q) {
      options.num_threads = 1;
      const DistanceSelectionResult serial =
          selection.Run(queries.polygon(q), d, options);
      for (int threads : {2, 8}) {
        options.num_threads = threads;
        const DistanceSelectionResult parallel =
            selection.Run(queries.polygon(q), d, options);
        SCOPED_TRACE(std::string(use_hw ? "hw" : "sw") + " query " +
                     std::to_string(q) + " threads " +
                     std::to_string(threads));
        EXPECT_EQ(serial.ids, parallel.ids);
        ExpectSameCounts(serial.counts, parallel.counts);
        ExpectSameCounters(serial.hw_counters, parallel.hw_counters);
      }
    }
  }
}

TEST(ParallelRefinementTest, DistanceJoinThreadCountInvariance) {
  const data::Dataset a = MakeDataset(4207, 100);
  const data::Dataset b = MakeDataset(4208, 80);
  const WithinDistanceJoin join(a, b);
  const double d = 1.5;
  for (bool use_hw : {true, false}) {
    DistanceJoinOptions options;
    options.use_hw = use_hw;
    options.num_threads = 1;
    const DistanceJoinResult serial = join.Run(d, options);
    for (int threads : {2, 8}) {
      options.num_threads = threads;
      const DistanceJoinResult parallel = join.Run(d, options);
      SCOPED_TRACE(std::string(use_hw ? "hw" : "sw") + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(serial.pairs, parallel.pairs);
      ExpectSameCounts(serial.counts, parallel.counts);
      ExpectSameCounters(serial.hw_counters, parallel.hw_counters);
    }
  }
}

TEST(ParallelRefinementTest, ZeroThreadsMeansHardwareConcurrency) {
  const data::Dataset a = MakeDataset(4209, 60);
  const data::Dataset b = MakeDataset(4210, 60);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.use_hw = true;
  options.num_threads = 1;
  const JoinResult serial = join.Run(options);
  options.num_threads = 0;  // resolve to std::thread::hardware_concurrency()
  const JoinResult parallel = join.Run(options);
  EXPECT_EQ(serial.pairs, parallel.pairs);
  ExpectSameCounters(serial.hw_counters, parallel.hw_counters);
}

// The interval cache must survive the grid changing between Run() calls on
// one pipeline object — each run sees a complete, coherent approximation
// for its own grid, and returning to a previous grid rebuilds rather than
// reusing stale intervals.
TEST(ParallelRefinementTest, IntervalCacheGridAlternation) {
  const data::Dataset data = MakeDataset(4211, 120);
  const data::Dataset queries = MakeDataset(4212, 3);
  const IntersectionSelection cached(data);
  for (int threads : {1, 4}) {
    for (int bits : {10, 8, 10, 8, 6}) {  // alternate across calls
      SelectionOptions options;
      options.hw.use_intervals = true;
      options.hw.interval_grid_bits = bits;
      options.num_threads = threads;
      // Reference: a fresh pipeline whose cache has only ever seen `grid`.
      const IntersectionSelection fresh(data);
      SelectionOptions serial = options;
      serial.num_threads = 1;
      for (size_t q = 0; q < queries.size(); ++q) {
        const SelectionResult got = cached.Run(queries.polygon(q), options);
        const SelectionResult want = fresh.Run(queries.polygon(q), serial);
        SCOPED_TRACE("grid bits " + std::to_string(bits) + " threads " +
                     std::to_string(threads) + " query " + std::to_string(q));
        EXPECT_EQ(want.ids, got.ids);
        EXPECT_EQ(want.interval_hits, got.interval_hits);
        EXPECT_EQ(want.interval_misses, got.interval_misses);
      }
    }
  }
}

// Same pipeline object driven from two threads at once with *different*
// interval grids: each run pins its own approximation snapshot while the
// other swaps the cache key, and both must stay correct.
TEST(ParallelRefinementTest, ConcurrentRunsWithDifferentGrids) {
  const data::Dataset a = MakeDataset(4213, 90);
  const data::Dataset b = MakeDataset(4214, 70);
  const IntersectionJoin join(a, b);

  JoinOptions base;
  base.use_hw = true;
  base.num_threads = 2;

  base.hw.use_intervals = true;

  JoinOptions coarse = base;
  coarse.hw.interval_grid_bits = 8;
  JoinOptions fine = base;
  fine.hw.interval_grid_bits = 10;

  const JoinResult want_coarse = join.Run(coarse);
  const JoinResult want_fine = join.Run(fine);

  for (int round = 0; round < 3; ++round) {
    JoinResult got_coarse, got_fine;
    std::thread t1([&] { got_coarse = join.Run(coarse); });
    std::thread t2([&] { got_fine = join.Run(fine); });
    t1.join();
    t2.join();
    EXPECT_EQ(want_coarse.pairs, got_coarse.pairs) << "round " << round;
    EXPECT_EQ(want_fine.pairs, got_fine.pairs) << "round " << round;
    EXPECT_EQ(want_coarse.interval_misses, got_coarse.interval_misses);
    EXPECT_EQ(want_fine.interval_misses, got_fine.interval_misses);
  }
}

}  // namespace
}  // namespace hasj::core
