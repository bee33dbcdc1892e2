#include "core/batch_tester.h"

#include <algorithm>
#include <optional>

#include "common/macros.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "glsim/rowspan.h"
#include "obs/names.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {

BatchHardwareTester::BatchHardwareTester(
    const HwConfig& config, const algo::DistanceOptions& dist_options)
    : config_(config),
      isect_(config),
      dist_(config, dist_options),
      atlas_(config.resolution, std::max(1, config.batch_size)) {
  HASJ_CHECK(config.backend == HwBackend::kBitmask);
  HASJ_CHECK(config.resolution <= glsim::Atlas::kMaxTileRes);
  HASJ_CHECK(config.batch_size >= 1);
  atlas_.set_faults(config.faults);
  if (config.metrics != nullptr) {
    batch_pairs_hist_ = &config.metrics->GetHistogram(obs::kHistBatchPairs);
    batch_tiles_hist_ = &config.metrics->GetHistogram(obs::kHistBatchTiles);
    occupancy_hist_ =
        &config.metrics->GetHistogram(obs::kHistBatchOccupancyPct);
    tile_pixels_hist_ = &config.metrics->GetHistogram(obs::kHistPixelsColored);
  }
}

void BatchHardwareTester::RecordSubBatchShape(size_t pairs, int tiles) {
  if (batch_pairs_hist_ == nullptr) return;
  batch_pairs_hist_->Record(static_cast<int64_t>(pairs));
  batch_tiles_hist_->Record(tiles);
  occupancy_hist_->Record(static_cast<int64_t>(100) * tiles /
                          atlas_.capacity());
}

HwCounters BatchHardwareTester::counters() const {
  HwCounters merged = isect_.counters();
  merged += dist_.counters();
  merged += batch_counters_;
  return merged;
}

void BatchHardwareTester::TestIntersectionBatch(
    std::span<const PolygonPair> pairs, uint8_t* verdicts) {
  const size_t cap = static_cast<size_t>(atlas_.capacity());
  for (size_t off = 0; off < pairs.size(); off += cap) {
    const size_t len = std::min(cap, pairs.size() - off);
    SubBatch(
        isect_, isect_plans_, pairs.subspan(off, len), verdicts + off,
        [this](const PolygonPair& pair, PairPlan* plan) {
          isect_.Plan(*pair.first, *pair.second, plan);
        },
        [this](const PolygonPair& pair, const PairPlan& plan,
               std::optional<bool> overlap) {
          return isect_.Finish(*pair.first, *pair.second, plan, overlap);
        });
  }
}

void BatchHardwareTester::TestWithinDistanceBatch(
    std::span<const PolygonPair> pairs, double d, uint8_t* verdicts) {
  const size_t cap = static_cast<size_t>(atlas_.capacity());
  for (size_t off = 0; off < pairs.size(); off += cap) {
    const size_t len = std::min(cap, pairs.size() - off);
    SubBatch(
        dist_, dist_plans_, pairs.subspan(off, len), verdicts + off,
        [this, d](const PolygonPair& pair, DistancePlan* plan) {
          dist_.Plan(*pair.first, *pair.second, d, plan);
        },
        [this, d](const PolygonPair& pair, const DistancePlan& plan,
                  std::optional<bool> overlap) {
          return dist_.Finish(*pair.first, *pair.second, d, plan, overlap);
        });
  }
}

template <typename Tester, typename Plan, typename PlanFn, typename FinishFn>
void BatchHardwareTester::SubBatch(Tester& tester, std::vector<Plan>& plans,
                                   std::span<const PolygonPair> pairs,
                                   uint8_t* verdicts, const PlanFn& plan_fn,
                                   const FinishFn& finish_fn) {
  const size_t n = pairs.size();
  if (plans.size() < n) plans.resize(n);
  arena_.Reset();
  int32_t* tile_of = arena_.Alloc<int32_t>(n);
  StepPair* steps = arena_.Alloc<StepPair>(n);

  // Route every pair through the shared per-pair skeleton; assign atlas
  // tiles to the kHardware ones in order.
  int tiles = 0;
  for (size_t i = 0; i < n; ++i) {
    plan_fn(pairs[i], &plans[i]);
    tile_of[i] = -1;
    if (plans[i].stage == Plan::Stage::kHardware) {
      steps[tiles] = tester.Step(plans[i]);
      tile_of[i] = tiles++;
    }
  }
  const uint8_t* hits =
      AtlasStep(tester, n, std::span<const StepPair>(steps, tiles));

  // Finish pass: complete every decision through the shared skeleton, in
  // pair order (identical counters and paranoid checks to the per-pair
  // path). Without atlas verdicts, each kHardware pair runs the per-pair
  // hardware step, which handles its own faults and the breaker's
  // pair-counted reprobe — so a batch fault degrades pair by pair instead
  // of failing the batch.
  for (size_t i = 0; i < n; ++i) {
    std::optional<bool> overlap;
    if (hits != nullptr && tile_of[i] >= 0) overlap = hits[tile_of[i]] != 0;
    verdicts[i] = finish_fn(pairs[i], plans[i], overlap) ? 1 : 0;
  }
}

template <typename Tester>
const uint8_t* BatchHardwareTester::AtlasStep(Tester& tester, size_t pairs,
                                              std::span<const StepPair> steps) {
  // Degradation routing (DESIGN.md §11): the atlas batch only runs when
  // the breaker is fully closed and every batch-level fault gate passes.
  const size_t tiles = steps.size();
  if (tiles == 0 || !tester.HwBatchAllowed()) return nullptr;
  Status status = atlas_.TryClear();
  if (status.ok()) status = atlas_.BeginFill();
  if (!status.ok()) {
    // One batch-level fault event: count it, feed the breaker, and leave
    // every kHardware pair to the per-pair route.
    tester.NoteHwFault();
    return nullptr;
  }
  RecordSubBatchShape(pairs, static_cast<int>(tiles));
  uint8_t* filled = arena_.AllocZeroed<uint8_t>(tiles);
  uint8_t* hits = arena_.AllocZeroed<uint8_t>(tiles);
  const BitmaskStep step{tester.engine(),
                         arena_.Alloc<glsim::RowSpanBuffer>(1),
                         &batch_counters_, config_.trace, tile_pixels_hist_};

  // Fill pass. The projection (WindowTransform) and the span->column
  // snapping (rowspan.h) are the ones the per-pair testers use, so a tile
  // holds exactly the pixels a per-pair render would produce.
  obs::ManualSpan pass_span;
  pass_span.Start(config_.trace, "hw-fill", "hw");
  // Batch-granular PMU scope (per-pair scopes would dominate the cost
  // here); the trace span carries the pass's event deltas as args.
  std::optional<obs::PmuScope> pmu(std::in_place, config_.pmu,
                                   obs::PmuStage::kHwFill, config_.trace);
  Stopwatch watch;
  for (size_t t = 0; t < tiles; ++t) {
    filled[t] = step.Fill(steps[t], atlas_.tile(static_cast<int>(t))) > 0;
  }
  const double fill_ms = watch.ElapsedMillis();
  pmu.reset();
  pass_span.End();

  // Scan pass: every tile's probes, stopping a tile at its first shared
  // pixel. An empty tile has nothing to hit.
  status = atlas_.BeginScan();
  if (!status.ok()) {
    tester.NoteHwFault();
    return nullptr;
  }
  pass_span.Start(config_.trace, "hw-scan", "hw");
  pmu.emplace(config_.pmu, obs::PmuStage::kHwScan, config_.trace);
  watch.Restart();
  for (size_t t = 0; t < tiles; ++t) {
    hits[t] =
        filled[t] && step.Probe(steps[t], atlas_.tile(static_cast<int>(t)));
  }
  const double scan_ms = watch.ElapsedMillis();
  pmu.reset();
  pass_span.End();

  tester.NoteHwSuccess();
  batch_counters_.hw_tests += static_cast<int64_t>(tiles);
  batch_counters_.hw_ms += fill_ms + scan_ms;
  ++batch_counters_.batch.batches;
  batch_counters_.batch.batched_pairs += static_cast<int64_t>(tiles);
  batch_counters_.batch.fill_ms += fill_ms;
  batch_counters_.batch.scan_ms += scan_ms;
  return hits;
}

}  // namespace hasj::core
