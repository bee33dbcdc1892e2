#include "core/join.h"

#include <utility>

#include "core/query_stages.h"

namespace hasj::core {

IntersectionJoin::IntersectionJoin(const data::Dataset& a,
                                   const data::Dataset& b)
    : index_a_(a), index_b_(b) {}

JoinResult IntersectionJoin::Run(const JoinOptions& options) const {
  // Pin both dataset versions for the whole query.
  const data::DatasetIndex::Pinned a = index_a_.Acquire();
  const data::DatasetIndex::Pinned b = index_b_.Acquire();
  // Both sides are approximated over one frame — the union of the two
  // extents — so their Hilbert cell indices are directly comparable.
  geom::Box frame = a.Bounds();
  frame.Extend(b.Bounds());
  CachedIntervals intervals_a(interval_cache_a_, a, frame, options.hw,
                              options.num_threads);
  CachedIntervals intervals_b(interval_cache_b_, b, frame, options.hw,
                              options.num_threads);
  StageOutcome<std::pair<int64_t, int64_t>> out = RunStages(
      {.kind = "join",
       .hw = options.hw,
       .use_hw = options.use_hw,
       .num_threads = options.num_threads,
       .use_intervals = options.hw.use_intervals},
      JoinShape{a, b, &intervals_a, &intervals_b}, IntersectsPredicate{},
      [&] { return index::JoinIntersects(*a.rtree, *b.rtree); });
  JoinResult result;
  result.pairs = std::move(out.accepted);
  result.costs = out.costs;
  result.counts = out.counts;
  result.interval_hits = out.tallies.interval_hits;
  result.interval_misses = out.tallies.interval_misses;
  result.interval_undecided = out.tallies.interval_undecided;
  result.hw_counters = out.hw_counters;
  result.status = std::move(out.status);
  return result;
}

}  // namespace hasj::core
