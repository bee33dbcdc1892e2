#include "core/distance_join.h"

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

WithinDistanceJoin::WithinDistanceJoin(const data::Dataset& a,
                                       const data::Dataset& b)
    : index_a_(a), index_b_(b) {}

DistanceJoinResult WithinDistanceJoin::Run(
    double d, const DistanceJoinOptions& options) const {
  DistanceJoinResult result;
  Stopwatch watch;
  const obs::PmuSnapshot pmu_begin = obs::PmuSnapshotOf(options.hw.pmu);
  const QueryDeadline deadline =
      QueryDeadline::Start(options.hw.deadline_ms, options.hw.cancel);
  obs::ManualSpan stage_span;
  // Pin one version of each dataset for the whole query: a concurrent
  // ReloadDatasetInPlace cannot change what this run sees.
  const data::DatasetIndex::Pinned a = index_a_.Acquire();
  const data::DatasetIndex::Pinned b = index_b_.Acquire();

  // Stage 1: MBR distance join (MBR distance lower-bounds object distance).
  stage_span.Start(options.hw.trace, "mbr", "stage");
  const std::vector<std::pair<int64_t, int64_t>> candidates =
      index::JoinWithinDistance(*a.rtree, *b.rtree, d);
  result.counts.candidates = static_cast<int64_t>(candidates.size());
  result.costs.mbr_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 2: 0-Object and 1-Object filters (distance upper bounds; a bound
  // <= d makes the pair a definite positive).
  stage_span.Start(options.hw.trace, "filter", "stage");
  watch.Restart();
  std::vector<std::pair<int64_t, int64_t>> undecided;
  undecided.reserve(candidates.size());
  // Interval secondary filter (DESIGN.md §12), accept-only here: a TRUE-HIT
  // intersection implies distance 0 <= d; interval misses prove nothing
  // about the gap and fall through to refinement.
  std::shared_ptr<const filter::IntervalApprox> intervals_a;
  std::shared_ptr<const filter::IntervalApprox> intervals_b;
  if (options.hw.use_intervals && d >= 0.0 && result.status.ok()) {
    geom::Box frame = a.Bounds();
    frame.Extend(b.Bounds());
    const filter::IntervalApproxConfig interval_config =
        IntervalConfigFrom(options.hw, options.num_threads);
    auto acquired_a = interval_cache_a_.Acquire(a.data.polygons(), frame,
                                                a.epoch(), interval_config);
    auto acquired_b = interval_cache_b_.Acquire(b.data.polygons(), frame,
                                                b.epoch(), interval_config);
    if (acquired_a.ok() && acquired_b.ok()) {
      intervals_a = std::move(acquired_a).value();
      intervals_b = std::move(acquired_b).value();
    } else {
      result.status =
          acquired_a.ok() ? acquired_b.status() : acquired_a.status();
    }
  }
  const bool guarded = deadline.active();
  // PMU attribution for the serial decision loop, active only when the
  // interval filter (which dominates the loop) is; ended explicitly after
  // the loop so the compare stage is not attributed here.
  std::optional<obs::PmuScope> interval_pmu;
  if (intervals_a != nullptr && options.hw.pmu != nullptr) {
    interval_pmu.emplace(options.hw.pmu, obs::PmuStage::kIntervalDecide,
                         options.hw.trace);
  }
  for (size_t ci = 0; ci < candidates.size() && result.status.ok(); ++ci) {
    // Poll the budget every 64 candidates: truncating here leaves `pairs`
    // a prefix of the filter hits, which lead the complete result list.
    if (guarded && (ci % 64) == 0 && deadline.Expired()) {
      result.status = deadline.ToStatus();
      break;
    }
    const auto& [ida, idb] = candidates[ci];
    const geom::Box& ba = a.mbr(static_cast<size_t>(ida));
    const geom::Box& bb = b.mbr(static_cast<size_t>(idb));
    if (options.use_zero_object_filter &&
        filter::ZeroObjectUpperBound(ba, bb) <= d) {
      result.pairs.emplace_back(ida, idb);
      ++result.zero_object_hits;
      ++result.counts.filter_hits;
      continue;
    }
    if (options.use_one_object_filter) {
      // The paper retrieves the larger object's geometry for the tighter
      // one-sided bound.
      const bool a_larger = ba.Area() >= bb.Area();
      const geom::Polygon& larger = a_larger
                                        ? a.polygon(static_cast<size_t>(ida))
                                        : b.polygon(static_cast<size_t>(idb));
      const geom::Box& other = a_larger ? bb : ba;
      if (filter::OneObjectUpperBound(larger, other) <= d) {
        result.pairs.emplace_back(ida, idb);
        ++result.one_object_hits;
        ++result.counts.filter_hits;
        continue;
      }
    }
    if (intervals_a != nullptr) {
      if (filter::DecidePair(intervals_a->object(static_cast<size_t>(ida)),
                             intervals_b->object(static_cast<size_t>(idb))) ==
          filter::IntervalVerdict::kHit) {
        HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(
            a.polygon(static_cast<size_t>(ida)),
            b.polygon(static_cast<size_t>(idb)), options.hw));
        result.pairs.emplace_back(ida, idb);
        ++result.interval_hits;
        ++result.counts.filter_hits;
        continue;
      }
      ++result.interval_undecided;
    }
    undecided.emplace_back(ida, idb);
  }
  interval_pmu.reset();
  result.costs.filter_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 3: geometry comparison; the tester is the refinement engine for
  // both modes, so the software baseline shares the cached point locators.
  // One tester per worker; accepted pairs come back in candidate order at
  // every thread count.
  stage_span.Start(options.hw.trace, "compare", "stage");
  watch.Restart();
  HwConfig hw_config = options.hw;
  hw_config.enable_hw = options.use_hw;
  RefinementExecutor executor(options.num_threads);
  executor.SetObservability(options.hw.trace, options.hw.metrics);
  executor.SetDeadline(&deadline);
  executor.SetFaults(options.hw.faults);
  RefinementOutcome<std::pair<int64_t, int64_t>> refined;
  if (result.status.ok()) {
    if (hw_config.use_batching && hw_config.enable_hw &&
        hw_config.backend == HwBackend::kBitmask) {
      // Batched hardware step (DESIGN.md §9): decision-identical to the
      // per-pair branch below, amortized over atlas tiles.
      refined = executor.RefineBatches(
          undecided,
          [&] { return BatchHardwareTester(hw_config, options.sw); },
          [&](const std::pair<int64_t, int64_t>& c) {
            return PolygonPair{&a.polygon(static_cast<size_t>(c.first)),
                               &b.polygon(static_cast<size_t>(c.second))};
          },
          [d](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
              uint8_t* verdicts) {
            tester.TestWithinDistanceBatch(pairs, d, verdicts);
          });
    } else {
      refined = executor.Refine(
          undecided, [&] { return HwDistanceTester(hw_config, options.sw); },
          [&](HwDistanceTester& tester,
              const std::pair<int64_t, int64_t>& c) {
            return tester.Test(a.polygon(static_cast<size_t>(c.first)),
                               b.polygon(static_cast<size_t>(c.second)), d);
          });
    }
    result.counts.compared += refined.attempted;
    result.pairs.insert(result.pairs.end(), refined.accepted.begin(),
                        refined.accepted.end());
    result.status = refined.status;
  }
  result.costs.compare_ms = watch.ElapsedMillis();
  stage_span.End();
  result.counts.truncated = !result.status.ok();
  result.counts.results = static_cast<int64_t>(result.pairs.size());
  result.hw_counters = refined.counters;
  RecordQueryObs(options.hw, "distance_join", result.costs, result.counts,
                 result.hw_counters,
                 {.interval_hits = result.interval_hits,
                  .interval_undecided = result.interval_undecided},
                 pmu_begin);
  return result;
}

}  // namespace hasj::core
