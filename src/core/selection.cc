#include "core/selection.h"

#include <utility>

#include "core/query_stages.h"

namespace hasj::core {

IntersectionSelection::IntersectionSelection(const data::Dataset& dataset)
    : index_(dataset) {}

SelectionResult IntersectionSelection::Run(
    const geom::Polygon& query, const SelectionOptions& options) const {
  // Pin the dataset version for the whole query: content, tree, and the
  // interval approximation all key off this one epoch.
  const data::DatasetIndex::Pinned pin = index_.Acquire();
  CachedIntervals intervals(interval_cache_, pin, pin.Bounds(), options.hw,
                            options.num_threads);
  StageOutcome<int64_t> out = RunStages(
      {.kind = "selection",
       .hw = options.hw,
       .use_hw = options.use_hw,
       .num_threads = options.num_threads,
       .use_intervals = options.hw.use_intervals,
       .interior_tiling_level = options.interior_tiling_level},
      SelectionShape{pin, query, &intervals}, IntersectsPredicate{},
      [&] { return pin.rtree->QueryIntersects(query.Bounds()); });
  SelectionResult result;
  result.ids = std::move(out.accepted);
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
