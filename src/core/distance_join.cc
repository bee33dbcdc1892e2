#include "core/distance_join.h"

#include <utility>

#include "core/query_stages.h"

namespace hasj::core {

WithinDistanceJoin::WithinDistanceJoin(const data::Dataset& a,
                                       const data::Dataset& b)
    : index_a_(a), index_b_(b) {}

DistanceJoinResult WithinDistanceJoin::Run(
    double d, const DistanceJoinOptions& options) const {
  // Pin one version of each dataset for the whole query: a concurrent
  // ReloadDatasetInPlace cannot change what this run sees.
  const data::DatasetIndex::Pinned a = index_a_.Acquire();
  const data::DatasetIndex::Pinned b = index_b_.Acquire();
  geom::Box frame = a.Bounds();
  frame.Extend(b.Bounds());
  CachedIntervals intervals_a(interval_cache_a_, a, frame, options.hw,
                              options.num_threads);
  CachedIntervals intervals_b(interval_cache_b_, b, frame, options.hw,
                              options.num_threads);
  // MBR distance lower-bounds object distance, so the MBR distance join
  // keeps every pair within d.
  StageOutcome<std::pair<int64_t, int64_t>> out = RunStages(
      {.kind = "distance_join",
       .hw = options.hw,
       .use_hw = options.use_hw,
       .num_threads = options.num_threads,
       .use_intervals = options.hw.use_intervals,
       .zero_object_filter = options.use_zero_object_filter,
       .one_object_filter = options.use_one_object_filter},
      JoinShape{a, b, &intervals_a, &intervals_b},
      DistancePredicate{d, options.sw},
      [&] { return index::JoinWithinDistance(*a.rtree, *b.rtree, d); });
  DistanceJoinResult result;
  result.pairs = std::move(out.accepted);
  result.costs = out.costs;
  result.counts = out.counts;
  result.zero_object_hits = out.zero_object_hits;
  result.one_object_hits = out.one_object_hits;
  result.interval_hits = out.tallies.interval_hits;
  result.interval_undecided = out.tallies.interval_undecided;
  result.hw_counters = out.hw_counters;
  result.status = std::move(out.status);
  return result;
}

}  // namespace hasj::core
