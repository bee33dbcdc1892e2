#include "core/distance_selection.h"

#include <optional>

#include "common/stopwatch.h"
#include "core/batch_tester.h"
#include "core/hw_distance.h"
#include "core/interval_stage.h"
#include "core/paranoid.h"
#include "core/query_obs.h"
#include "core/refinement_executor.h"
#include "filter/object_filters.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {

WithinDistanceSelection::WithinDistanceSelection(const data::Dataset& dataset)
    : index_(dataset) {}

DistanceSelectionResult WithinDistanceSelection::Run(
    const geom::Polygon& query, double d,
    const DistanceSelectionOptions& options) const {
  DistanceSelectionResult result;
  Stopwatch watch;
  const obs::PmuSnapshot pmu_begin = obs::PmuSnapshotOf(options.hw.pmu);
  const QueryDeadline deadline =
      QueryDeadline::Start(options.hw.deadline_ms, options.hw.cancel);
  obs::ManualSpan stage_span;
  // Pin one dataset version for the whole query: a concurrent
  // ReloadDatasetInPlace cannot change what this run sees.
  const data::DatasetIndex::Pinned pin = index_.Acquire();

  // Stage 1: MBR distance filtering.
  stage_span.Start(options.hw.trace, "mbr", "stage");
  const std::vector<int64_t> candidates =
      pin.rtree->QueryWithinDistance(query.Bounds(), d);
  result.counts.candidates = static_cast<int64_t>(candidates.size());
  result.costs.mbr_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 2: 0/1-Object distance upper-bound filters.
  stage_span.Start(options.hw.trace, "filter", "stage");
  watch.Restart();
  std::vector<int64_t> undecided;
  undecided.reserve(candidates.size());
  // Interval secondary filter (DESIGN.md §12), accept-only here: a TRUE-HIT
  // intersection implies distance 0 <= d; interval misses prove nothing
  // about the gap and fall through to refinement.
  std::shared_ptr<const filter::IntervalApprox> intervals;
  filter::ObjectIntervals query_intervals;
  if (options.hw.use_intervals && result.status.ok()) {
    auto acquired = interval_cache_.Acquire(
        pin.data.polygons(), pin.Bounds(), pin.epoch(),
        IntervalConfigFrom(options.hw, options.num_threads));
    if (acquired.ok()) {
      intervals = std::move(acquired).value();
      query_intervals = intervals->ApproximateObject(query);
    } else {
      result.status = acquired.status();
    }
  }
  const bool guarded = deadline.active();
  // PMU attribution for the serial decision loop, active only when the
  // interval filter (which dominates the loop) is; ended explicitly after
  // the loop so the compare stage is not attributed here.
  std::optional<obs::PmuScope> interval_pmu;
  if (intervals != nullptr && options.hw.pmu != nullptr) {
    interval_pmu.emplace(options.hw.pmu, obs::PmuStage::kIntervalDecide,
                         options.hw.trace);
  }
  for (size_t ci = 0; ci < candidates.size() && result.status.ok(); ++ci) {
    // Poll the budget every 64 candidates: truncating here leaves `ids` a
    // prefix of the filter hits, which lead the complete result list.
    if (guarded && (ci % 64) == 0 && deadline.Expired()) {
      result.status = deadline.ToStatus();
      break;
    }
    const int64_t id = candidates[ci];
    const geom::Box& mbr = pin.mbr(static_cast<size_t>(id));
    if (options.use_zero_object_filter &&
        filter::ZeroObjectUpperBound(mbr, query.Bounds()) <= d) {
      result.ids.push_back(id);
      ++result.zero_object_hits;
      ++result.counts.filter_hits;
      continue;
    }
    if (options.use_one_object_filter &&
        filter::OneObjectUpperBound(query, mbr) <= d) {
      result.ids.push_back(id);
      ++result.one_object_hits;
      ++result.counts.filter_hits;
      continue;
    }
    if (intervals != nullptr && d >= 0.0) {
      if (filter::DecidePair(query_intervals,
                             intervals->object(static_cast<size_t>(id))) ==
          filter::IntervalVerdict::kHit) {
        HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(
            pin.polygon(static_cast<size_t>(id)), query, options.hw));
        result.ids.push_back(id);
        ++result.interval_hits;
        ++result.counts.filter_hits;
        continue;
      }
      ++result.interval_undecided;
    }
    undecided.push_back(id);
  }
  interval_pmu.reset();
  result.costs.filter_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 3: geometry comparison through the shared refinement engine,
  // one tester per worker; accepted ids come back in candidate order at
  // every thread count.
  stage_span.Start(options.hw.trace, "compare", "stage");
  watch.Restart();
  HwConfig hw_config = options.hw;
  hw_config.enable_hw = options.use_hw;
  RefinementExecutor executor(options.num_threads);
  executor.SetObservability(options.hw.trace, options.hw.metrics);
  executor.SetDeadline(&deadline);
  executor.SetFaults(options.hw.faults);
  RefinementOutcome<int64_t> refined;
  if (result.status.ok()) {
    if (hw_config.use_batching && hw_config.enable_hw &&
        hw_config.backend == HwBackend::kBitmask) {
      // Batched hardware step (DESIGN.md §9): decision-identical to the
      // per-pair branch below, amortized over atlas tiles.
      refined = executor.RefineBatches(
          undecided,
          [&] { return BatchHardwareTester(hw_config, options.sw); },
          [&](int64_t id) {
            return PolygonPair{&pin.polygon(static_cast<size_t>(id)),
                               &query};
          },
          [d](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
              uint8_t* verdicts) {
            tester.TestWithinDistanceBatch(pairs, d, verdicts);
          });
    } else {
      refined = executor.Refine(
          undecided, [&] { return HwDistanceTester(hw_config, options.sw); },
          [&](HwDistanceTester& tester, int64_t id) {
            return tester.Test(pin.polygon(static_cast<size_t>(id)),
                               query, d);
          });
    }
    result.counts.compared += refined.attempted;
    result.ids.insert(result.ids.end(), refined.accepted.begin(),
                      refined.accepted.end());
    result.status = refined.status;
  }
  result.costs.compare_ms = watch.ElapsedMillis();
  stage_span.End();
  result.counts.truncated = !result.status.ok();
  result.counts.results = static_cast<int64_t>(result.ids.size());
  result.hw_counters = refined.counters;
  RecordQueryObs(options.hw, "distance_selection", result.costs,
                 result.counts, result.hw_counters,
                 {.interval_hits = result.interval_hits,
                  .interval_undecided = result.interval_undecided},
                 pmu_begin);
  return result;
}

}  // namespace hasj::core
