#include "core/distance_selection.h"

#include <utility>

#include "core/query_stages.h"

namespace hasj::core {

WithinDistanceSelection::WithinDistanceSelection(const data::Dataset& dataset)
    : index_(dataset) {}

DistanceSelectionResult WithinDistanceSelection::Run(
    const geom::Polygon& query, double d,
    const DistanceSelectionOptions& options) const {
  // Pin one dataset version for the whole query: a concurrent
  // ReloadDatasetInPlace cannot change what this run sees.
  const data::DatasetIndex::Pinned pin = index_.Acquire();
  CachedIntervals intervals(interval_cache_, pin, pin.Bounds(), options.hw,
                            options.num_threads);
  StageOutcome<int64_t> out = RunStages(
      {.kind = "distance_selection",
       .hw = options.hw,
       .use_hw = options.use_hw,
       .num_threads = options.num_threads,
       .use_intervals = options.hw.use_intervals,
       .zero_object_filter = options.use_zero_object_filter,
       .one_object_filter = options.use_one_object_filter},
      SelectionShape{pin, query, &intervals}, DistancePredicate{d, options.sw},
      [&] { return pin.rtree->QueryWithinDistance(query.Bounds(), d); });
  DistanceSelectionResult result;
  result.ids = std::move(out.accepted);
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
