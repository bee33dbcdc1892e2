#include "core/selection.h"

#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "core/batch_tester.h"
#include "core/hw_intersection.h"
#include "core/interval_stage.h"
#include "core/paranoid.h"
#include "core/query_obs.h"
#include "core/refinement_executor.h"
#include "filter/interior_filter.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {

IntersectionSelection::IntersectionSelection(const data::Dataset& dataset)
    : index_(dataset) {}

IntersectionSelection::~IntersectionSelection() = default;

SelectionResult IntersectionSelection::Run(
    const geom::Polygon& query, const SelectionOptions& options) const {
  SelectionResult result;
  Stopwatch watch;
  const obs::PmuSnapshot pmu_begin = obs::PmuSnapshotOf(options.hw.pmu);
  const QueryDeadline deadline =
      QueryDeadline::Start(options.hw.deadline_ms, options.hw.cancel);
  RefinementExecutor executor(options.num_threads);
  executor.SetObservability(options.hw.trace, options.hw.metrics);
  executor.SetDeadline(&deadline);
  executor.SetFaults(options.hw.faults);
  obs::ManualSpan stage_span;
  // Pin the dataset version for the whole query: content, tree, and every
  // derived cache below key off this one epoch.
  const data::DatasetIndex::Pinned pin = index_.Acquire();

  // Stage 1: MBR filtering.
  stage_span.Start(options.hw.trace, "mbr", "stage");
  const std::vector<int64_t> candidates =
      pin.rtree->QueryIntersects(query.Bounds());
  result.counts.candidates = static_cast<int64_t>(candidates.size());
  result.costs.mbr_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 2: intermediate filtering (interior filter and/or raster
  // signature filter; the latter can also prove negatives).
  stage_span.Start(options.hw.trace, "filter", "stage");
  watch.Restart();
  std::vector<int64_t> undecided;
  undecided.reserve(candidates.size());
  std::optional<filter::InteriorFilter> interior;
  if (options.interior_tiling_level >= 0) {
    interior.emplace(query, options.interior_tiling_level);
  }
  std::optional<filter::RasterSignature> query_signature;
  std::optional<filter::SignatureCache::Snapshot> signatures;
  if (options.raster_filter_grid > 0) {
    query_signature.emplace(query, options.raster_filter_grid);
    signatures = signature_cache_.Acquire(options.raster_filter_grid,
                                          pin.size(), pin.epoch());
    // Pre-build the candidate signatures in parallel (per-slot call_once,
    // so duplicate builds cannot happen); the serial decision loop below
    // then reads a warm cache. Candidates the interior filter will decide
    // never need a signature, so they are skipped here too.
    if (executor.threads() > 1) {
      if (Status s = executor.ParallelFor(
              static_cast<int64_t>(candidates.size()),
              [&](int64_t begin, int64_t end, int /*worker*/) {
                for (int64_t i = begin; i < end; ++i) {
                  const size_t id = static_cast<size_t>(candidates[i]);
                  if (interior.has_value() &&
                      interior->IdentifiesPositive(pin.mbr(id))) {
                    continue;
                  }
                  signatures->Get(id, pin.polygon(id));
                }
              });
          !s.ok()) {
        result.status = std::move(s);
      }
    }
  }
  // Interval secondary filter (DESIGN.md §12): dataset approximation built
  // once per (grid, budget, epoch) and shared across queries; the query
  // object is approximated against the same grid here.
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
    if (interior.has_value() &&
        interior->IdentifiesPositive(pin.mbr(static_cast<size_t>(id)))) {
      result.ids.push_back(id);
      ++result.counts.filter_hits;
      continue;
    }
    if (intervals != nullptr) {
      switch (filter::DecidePair(query_intervals,
                                 intervals->object(static_cast<size_t>(id)))) {
        case filter::IntervalVerdict::kHit:
          HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(
              pin.polygon(static_cast<size_t>(id)), query, options.hw));
          result.ids.push_back(id);
          ++result.interval_hits;
          ++result.counts.filter_hits;
          continue;
        case filter::IntervalVerdict::kMiss:
          HASJ_PARANOID_ONLY(paranoid::CheckIntervalReject(
              pin.polygon(static_cast<size_t>(id)), query, options.hw));
          ++result.interval_misses;
          ++result.counts.filter_hits;
          continue;
        case filter::IntervalVerdict::kInconclusive:
          ++result.interval_undecided;
          break;
      }
    }
    if (query_signature.has_value()) {
      switch (filter::CompareRasterSignatures(
          signatures->Get(static_cast<size_t>(id),
                          pin.polygon(static_cast<size_t>(id))),
          *query_signature)) {
        case filter::RasterFilterDecision::kIntersect:
          result.ids.push_back(id);
          ++result.raster_positives;
          ++result.counts.filter_hits;
          continue;
        case filter::RasterFilterDecision::kDisjoint:
          ++result.raster_negatives;
          ++result.counts.filter_hits;
          continue;
        case filter::RasterFilterDecision::kUnknown:
          break;
      }
    }
    undecided.push_back(id);
  }
  interval_pmu.reset();
  result.costs.filter_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 3: geometry comparison. The tester is the refinement engine for
  // both modes (use_hw toggles the hardware filter), so the software
  // baseline shares the cached point locators. Each worker owns a tester;
  // accepted ids come back in candidate order at every thread count.
  stage_span.Start(options.hw.trace, "compare", "stage");
  watch.Restart();
  HwConfig hw_config = options.hw;
  hw_config.enable_hw = options.use_hw;
  RefinementOutcome<int64_t> refined;
  if (result.status.ok()) {
    if (hw_config.use_batching && hw_config.enable_hw &&
        hw_config.backend == HwBackend::kBitmask) {
      // Batched hardware step (DESIGN.md §9): decision-identical to the
      // per-pair branch below, amortized over atlas tiles.
      refined = executor.RefineBatches(
          undecided, [&] { return BatchHardwareTester(hw_config); },
          [&](int64_t id) {
            return PolygonPair{&pin.polygon(static_cast<size_t>(id)),
                               &query};
          },
          [](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
             uint8_t* verdicts) { tester.TestIntersectionBatch(pairs, verdicts); });
    } else {
      refined = executor.Refine(
          undecided,
          [&] { return HwIntersectionTester(hw_config); },
          [&](HwIntersectionTester& tester, int64_t id) {
            return tester.Test(pin.polygon(static_cast<size_t>(id)), query);
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
  RecordQueryObs(options.hw, "selection", result.costs, result.counts,
                 result.hw_counters,
                 {.raster_positives = result.raster_positives,
                  .raster_negatives = result.raster_negatives,
                  .interval_hits = result.interval_hits,
                  .interval_misses = result.interval_misses,
                  .interval_undecided = result.interval_undecided},
                 pmu_begin);
  return result;
}

}  // namespace hasj::core
