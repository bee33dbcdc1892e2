#include "core/join.h"

#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "core/batch_tester.h"
#include "core/hw_intersection.h"
#include "core/interval_stage.h"
#include "core/paranoid.h"
#include "core/query_obs.h"
#include "core/refinement_executor.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {

IntersectionJoin::IntersectionJoin(const data::Dataset& a,
                                   const data::Dataset& b)
    : index_a_(a), index_b_(b) {}

JoinResult IntersectionJoin::Run(const JoinOptions& options) const {
  JoinResult result;
  Stopwatch watch;
  const obs::PmuSnapshot pmu_begin = obs::PmuSnapshotOf(options.hw.pmu);
  const QueryDeadline deadline =
      QueryDeadline::Start(options.hw.deadline_ms, options.hw.cancel);
  RefinementExecutor executor(options.num_threads);
  executor.SetObservability(options.hw.trace, options.hw.metrics);
  executor.SetDeadline(&deadline);
  executor.SetFaults(options.hw.faults);
  obs::ManualSpan stage_span;
  // Pin both dataset versions for the whole query.
  const data::DatasetIndex::Pinned a = index_a_.Acquire();
  const data::DatasetIndex::Pinned b = index_b_.Acquire();

  // Stage 1: MBR join.
  stage_span.Start(options.hw.trace, "mbr", "stage");
  const std::vector<std::pair<int64_t, int64_t>> candidates =
      index::JoinIntersects(*a.rtree, *b.rtree);
  result.counts.candidates = static_cast<int64_t>(candidates.size());
  result.costs.mbr_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 2 (optional): rasterization intermediate filter. Signatures are
  // built lazily per polygon (at most once, std::call_once per slot) and
  // cached in the join object across runs; with a parallel executor the
  // candidate signatures are pre-built concurrently before the serial
  // decision loop reads them.
  stage_span.Start(options.hw.trace, "filter", "stage");
  watch.Restart();
  std::vector<std::pair<int64_t, int64_t>> undecided;
  const std::vector<std::pair<int64_t, int64_t>>* to_compare = &candidates;
  const bool use_raster = options.raster_filter_grid > 0;
  // Interval secondary filter (DESIGN.md §12): both sides are approximated
  // over one frame — the union of the two extents — so their Hilbert cell
  // indices are directly comparable.
  std::shared_ptr<const filter::IntervalApprox> intervals_a;
  std::shared_ptr<const filter::IntervalApprox> intervals_b;
  if (options.hw.use_intervals && result.status.ok()) {
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
  if ((use_raster || intervals_a != nullptr) && result.status.ok()) {
    std::optional<filter::SignatureCache::Snapshot> sig_a;
    std::optional<filter::SignatureCache::Snapshot> sig_b;
    if (use_raster) {
      sig_a = sig_cache_a_.Acquire(options.raster_filter_grid, a.size(),
                                   a.epoch());
      sig_b = sig_cache_b_.Acquire(options.raster_filter_grid, b.size(),
                                   b.epoch());
      if (executor.threads() > 1) {
        if (Status s = executor.ParallelFor(
                static_cast<int64_t>(candidates.size()),
                [&](int64_t begin, int64_t end, int /*worker*/) {
                  for (int64_t i = begin; i < end; ++i) {
                    const auto& [ida, idb] =
                        candidates[static_cast<size_t>(i)];
                    sig_a->Get(static_cast<size_t>(ida),
                               a.polygon(static_cast<size_t>(ida)));
                    sig_b->Get(static_cast<size_t>(idb),
                               b.polygon(static_cast<size_t>(idb)));
                  }
                });
            !s.ok()) {
          result.status = std::move(s);
        }
      }
    }
    undecided.reserve(candidates.size());
    const bool guarded = deadline.active();
    // PMU attribution for the serial decision loop, active only when the
    // interval filter (which dominates the loop) is; ended explicitly
    // after the loop so the compare stage is not attributed here.
    std::optional<obs::PmuScope> interval_pmu;
    if (intervals_a != nullptr && options.hw.pmu != nullptr) {
      interval_pmu.emplace(options.hw.pmu, obs::PmuStage::kIntervalDecide,
                           options.hw.trace);
    }
    for (size_t ci = 0; ci < candidates.size() && result.status.ok(); ++ci) {
      // Poll the budget every 64 candidates: truncating here leaves
      // `pairs` a prefix of the filter hits, which lead the full result.
      if (guarded && (ci % 64) == 0 && deadline.Expired()) {
        result.status = deadline.ToStatus();
        break;
      }
      const auto& [ida, idb] = candidates[ci];
      if (intervals_a != nullptr) {
        bool decided = true;
        switch (filter::DecidePair(
            intervals_a->object(static_cast<size_t>(ida)),
            intervals_b->object(static_cast<size_t>(idb)))) {
          case filter::IntervalVerdict::kHit:
            HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(
                a.polygon(static_cast<size_t>(ida)),
                b.polygon(static_cast<size_t>(idb)), options.hw));
            result.pairs.emplace_back(ida, idb);
            ++result.interval_hits;
            ++result.counts.filter_hits;
            break;
          case filter::IntervalVerdict::kMiss:
            HASJ_PARANOID_ONLY(paranoid::CheckIntervalReject(
                a.polygon(static_cast<size_t>(ida)),
                b.polygon(static_cast<size_t>(idb)), options.hw));
            ++result.interval_misses;
            ++result.counts.filter_hits;
            break;
          case filter::IntervalVerdict::kInconclusive:
            ++result.interval_undecided;
            decided = false;
            break;
        }
        if (decided) continue;
      }
      if (!use_raster) {
        undecided.emplace_back(ida, idb);
        continue;
      }
      switch (filter::CompareRasterSignatures(
          sig_a->Get(static_cast<size_t>(ida),
                     a.polygon(static_cast<size_t>(ida))),
          sig_b->Get(static_cast<size_t>(idb),
                     b.polygon(static_cast<size_t>(idb))))) {
        case filter::RasterFilterDecision::kIntersect:
          result.pairs.emplace_back(ida, idb);
          ++result.raster_positives;
          ++result.counts.filter_hits;
          break;
        case filter::RasterFilterDecision::kDisjoint:
          ++result.raster_negatives;
          ++result.counts.filter_hits;
          break;
        case filter::RasterFilterDecision::kUnknown:
          undecided.emplace_back(ida, idb);
          break;
      }
    }
    interval_pmu.reset();
    to_compare = &undecided;
  }
  result.costs.filter_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 3: geometry comparison (the intersection join of the paper uses
  // no intermediate filter; the interior filter targets selections). The
  // tester is the refinement engine for both modes, so the software
  // baseline shares the cached point locators. Each worker owns a tester;
  // accepted pairs come back in candidate order at every thread count.
  stage_span.Start(options.hw.trace, "compare", "stage");
  watch.Restart();
  HwConfig hw_config = options.hw;
  hw_config.enable_hw = options.use_hw;
  RefinementOutcome<std::pair<int64_t, int64_t>> refined;
  if (result.status.ok()) {
    if (hw_config.use_batching && hw_config.enable_hw &&
        hw_config.backend == HwBackend::kBitmask) {
      // Batched hardware step: workers drain their candidate chunks through
      // a tile-atlas tester (DESIGN.md §9); decisions and output order are
      // identical to the per-pair branch below.
      refined = executor.RefineBatches(
          *to_compare,
          [&] { return BatchHardwareTester(hw_config); },
          [&](const std::pair<int64_t, int64_t>& c) {
            return PolygonPair{&a.polygon(static_cast<size_t>(c.first)),
                               &b.polygon(static_cast<size_t>(c.second))};
          },
          [](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
             uint8_t* verdicts) {
            tester.TestIntersectionBatch(pairs, verdicts);
          });
    } else {
      refined = executor.Refine(
          *to_compare,
          [&] { return HwIntersectionTester(hw_config); },
          [&](HwIntersectionTester& tester,
              const std::pair<int64_t, int64_t>& c) {
            return tester.Test(a.polygon(static_cast<size_t>(c.first)),
                               b.polygon(static_cast<size_t>(c.second)));
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
  RecordQueryObs(options.hw, "join", result.costs, result.counts,
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
