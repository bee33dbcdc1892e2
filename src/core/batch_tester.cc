#include "core/batch_tester.h"

#include <algorithm>
#include <optional>

#include "common/macros.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "glsim/context.h"
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
    IntersectionSubBatch(pairs.subspan(off, len), verdicts + off);
  }
}

void BatchHardwareTester::TestWithinDistanceBatch(
    std::span<const PolygonPair> pairs, double d, uint8_t* verdicts) {
  const size_t cap = static_cast<size_t>(atlas_.capacity());
  for (size_t off = 0; off < pairs.size(); off += cap) {
    const size_t len = std::min(cap, pairs.size() - off);
    DistanceSubBatch(pairs.subspan(off, len), d, verdicts + off);
  }
}

void BatchHardwareTester::IntersectionSubBatch(
    std::span<const PolygonPair> pairs, uint8_t* verdicts) {
  const size_t n = pairs.size();
  const int res = config_.resolution;
  if (isect_plans_.size() < n) isect_plans_.resize(n);
  arena_.Reset();
  int32_t* tile_of = arena_.Alloc<int32_t>(n);
  glsim::RowSpanBuffer* spans = arena_.Alloc<glsim::RowSpanBuffer>(1);

  // Route every pair through the shared per-pair skeleton; assign atlas
  // tiles to the kHardware ones in order.
  int tiles = 0;
  for (size_t i = 0; i < n; ++i) {
    isect_plans_[i] = isect_.Plan(*pairs[i].first, *pairs[i].second);
    tile_of[i] =
        isect_plans_[i].stage == PairPlan::Stage::kHardware ? tiles++ : -1;
  }

  // Degradation routing (DESIGN.md §11): the atlas batch only runs when
  // the breaker is fully closed and every batch-level fault gate passes.
  // Otherwise batch_hw_ok stays false and the finish pass routes each
  // kHardware pair through the per-pair tester's HwStep — which handles
  // its own faults and breaker — so a batch fault degrades pair-by-pair
  // instead of failing the batch.
  bool batch_hw_ok = false;
  bool batch_attempted = false;
  Status batch_status = Status::Ok();
  if (tiles > 0 && isect_.HwBatchAllowed()) {
    batch_attempted = true;
    batch_status = atlas_.TryClear();
    if (batch_status.ok()) batch_status = atlas_.BeginFill();
  }

  uint8_t* any_first = nullptr;
  uint8_t* hw_overlap = nullptr;
  if (batch_attempted && batch_status.ok()) {
    RecordSubBatchShape(n, tiles);
    any_first = arena_.AllocZeroed<uint8_t>(static_cast<size_t>(tiles));
    hw_overlap = arena_.AllocZeroed<uint8_t>(static_cast<size_t>(tiles));
    const glsim::RowSpanEngine& engine = isect_.engine();

    // Fill pass: every pair's first boundary into its tile. The projection
    // (WindowTransform) and the span->column snapping (rowspan.h) are the
    // ones the per-pair tester uses, so a tile holds exactly the pixels a
    // per-pair render would produce.
    obs::ManualSpan pass_span;
    pass_span.Start(config_.trace, "hw-fill", "hw");
    // Batch-granular PMU scope (per-pair scopes would dominate the cost
    // here); the trace span carries the pass's event deltas as args.
    std::optional<obs::PmuScope> fill_pmu(std::in_place, config_.pmu,
                                          obs::PmuStage::kHwFill,
                                          config_.trace);
    Stopwatch fill_watch;
    for (size_t i = 0; i < n; ++i) {
      if (tile_of[i] < 0) continue;
      const int tile = tile_of[i];
      const geom::Box& viewport = isect_plans_[i].viewport;
      const glsim::WindowTransform xf =
          glsim::WindowTransform::Make(viewport, res, res);
      const geom::Polygon& p = *pairs[i].first;
      geom::ForEachEdgeNear(p, viewport, [&](const geom::Segment& edge) {
        any_first[static_cast<size_t>(tile)] = 1;
        if (glsim::ComputeLineAASpans(xf.ToWindow(edge.a), xf.ToWindow(edge.b),
                                      config_.line_width, res, res, spans)) {
          const glsim::FillResult fr = atlas_.FillTileSpans(engine, tile, spans);
          batch_counters_.fill_spans += fr.spans;
        }
        // Saturation early-stop, like the per-pair `unset` counter: a full
        // tile stays full, so skipping the rest changes nothing.
        if (atlas_.TileFull(tile)) {
          ++batch_counters_.fill_saturation_stops;
          if (config_.trace != nullptr) {
            config_.trace->Instant("tile-saturated", "hw");
          }
          return false;
        }
        return true;
      });
    }
    const double fill_ms = fill_watch.ElapsedMillis();
    fill_pmu.reset();
    pass_span.End();
    if (tile_pixels_hist_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (tile_of[i] >= 0) {
          tile_pixels_hist_->Record(atlas_.CountSet(tile_of[i]));
        }
      }
    }

    // Scan pass: every pair's second boundary probes its tile, fused with
    // the shared-pixel search — a tile stops at the first primitive whose
    // probe finds a doubly-colored row (the kernel's first-hit early stop).
    batch_status = atlas_.BeginScan();
    pass_span.Start(config_.trace, "hw-scan", "hw");
    std::optional<obs::PmuScope> scan_pmu(std::in_place, config_.pmu,
                                          obs::PmuStage::kHwScan,
                                          config_.trace);
    Stopwatch scan_watch;
    for (size_t i = 0; i < n && batch_status.ok(); ++i) {
      if (tile_of[i] < 0) continue;
      const int tile = tile_of[i];
      if (!any_first[static_cast<size_t>(tile)]) continue;  // empty tile
      const geom::Box& viewport = isect_plans_[i].viewport;
      const glsim::WindowTransform xf =
          glsim::WindowTransform::Make(viewport, res, res);
      const geom::Polygon& q = *pairs[i].second;
      bool hit = false;
      geom::ForEachEdgeNear(q, viewport, [&](const geom::Segment& edge) {
        if (!glsim::ComputeLineAASpans(xf.ToWindow(edge.a), xf.ToWindow(edge.b),
                                       config_.line_width, res, res, spans)) {
          return true;
        }
        const glsim::ProbeResult pr = atlas_.ProbeTileSpans(engine, tile, spans);
        batch_counters_.scan_spans += pr.spans;
        hit = pr.hit_row >= 0;
        return !hit;
      });
      if (hit) ++batch_counters_.scan_hit_stops;
      hw_overlap[static_cast<size_t>(tile)] = hit ? 1 : 0;
    }
    const double scan_ms = scan_watch.ElapsedMillis();
    scan_pmu.reset();
    pass_span.End();

    if (batch_status.ok()) {
      batch_hw_ok = true;
      isect_.NoteHwSuccess();
      batch_counters_.hw_tests += tiles;
      batch_counters_.hw_ms += fill_ms + scan_ms;
      ++batch_counters_.batch.batches;
      batch_counters_.batch.batched_pairs += tiles;
      batch_counters_.batch.fill_ms += fill_ms;
      batch_counters_.batch.scan_ms += scan_ms;
    }
  }
  if (batch_attempted && !batch_status.ok()) {
    // One batch-level fault event: count it, feed the breaker, and leave
    // every kHardware pair to the per-pair route below.
    isect_.NoteHwFault();
  }

  // Finish pass: complete every decision through the shared skeleton, in
  // pair order (identical counters and paranoid checks to the per-pair
  // path).
  for (size_t i = 0; i < n; ++i) {
    const PairPlan& plan = isect_plans_[i];
    const geom::Polygon& a = *pairs[i].first;
    const geom::Polygon& b = *pairs[i].second;
    bool keep = false;
    switch (plan.stage) {
      case PairPlan::Stage::kDecided:
        keep = plan.decision;
        break;
      case PairPlan::Stage::kSoftware:
        keep = isect_.FinishSurvivor(a, b);
        break;
      case PairPlan::Stage::kHardware:
        if (batch_hw_ok) {
          keep = hw_overlap[static_cast<size_t>(tile_of[i])]
                     ? isect_.FinishSurvivor(a, b)
                     : isect_.FinishReject(a, b, plan.viewport);
        } else {
          // Per-pair retry of a faulted/bypassed batch: HwStep handles its
          // own faults and the breaker's pair-counted reprobe.
          bool overlap = false;
          if (const Status hw = isect_.HwStep(a, b, plan.viewport, &overlap);
              !hw.ok()) {
            keep = isect_.FinishFallback(a, b);
          } else {
            keep = overlap ? isect_.FinishSurvivor(a, b)
                           : isect_.FinishReject(a, b, plan.viewport);
          }
        }
        break;
    }
    verdicts[i] = keep ? 1 : 0;
  }
}

void BatchHardwareTester::DistanceSubBatch(std::span<const PolygonPair> pairs,
                                           double d, uint8_t* verdicts) {
  const size_t n = pairs.size();
  const int res = config_.resolution;
  if (dist_plans_.size() < n) dist_plans_.resize(n);
  arena_.Reset();
  int32_t* tile_of = arena_.Alloc<int32_t>(n);
  glsim::RowSpanBuffer* spans = arena_.Alloc<glsim::RowSpanBuffer>(1);

  int tiles = 0;
  for (size_t i = 0; i < n; ++i) {
    dist_.Plan(*pairs[i].first, *pairs[i].second, d, &dist_plans_[i]);
    tile_of[i] =
        dist_plans_[i].stage == DistancePlan::Stage::kHardware ? tiles++ : -1;
  }

  // Same degradation routing as IntersectionSubBatch: atlas only when the
  // breaker is closed and the batch-level gates pass; otherwise kHardware
  // pairs retry per-pair in the finish pass.
  bool batch_hw_ok = false;
  bool batch_attempted = false;
  Status batch_status = Status::Ok();
  if (tiles > 0 && dist_.HwBatchAllowed()) {
    batch_attempted = true;
    batch_status = atlas_.TryClear();
    if (batch_status.ok()) batch_status = atlas_.BeginFill();
  }

  uint8_t* hw_overlap = nullptr;
  if (batch_attempted && batch_status.ok()) {
    RecordSubBatchShape(n, tiles);
    hw_overlap = arena_.AllocZeroed<uint8_t>(static_cast<size_t>(tiles));
    const glsim::RowSpanEngine& engine = dist_.engine();

    // The per-pair tester draws the smaller clipped edge set and probes
    // with the larger; replicate the choice so the filled tile is the same.
    const auto chains = [](const DistancePlan& plan) {
      const bool ep_first = plan.ep.size() <= plan.eq.size();
      return std::pair<const std::vector<geom::Segment>*,
                       const std::vector<geom::Segment>*>{
          ep_first ? &plan.ep : &plan.eq, ep_first ? &plan.eq : &plan.ep};
    };

    // Fill pass: each pair's smaller dilated chain — width-D lines with
    // wide-point end caps (one cap per chained endpoint, as per-pair).
    obs::ManualSpan pass_span;
    pass_span.Start(config_.trace, "hw-fill", "hw");
    // Batch-granular PMU scope, as in IntersectionSubBatch.
    std::optional<obs::PmuScope> fill_pmu(std::in_place, config_.pmu,
                                          obs::PmuStage::kHwFill,
                                          config_.trace);
    Stopwatch fill_watch;
    for (size_t i = 0; i < n; ++i) {
      if (tile_of[i] < 0) continue;
      const int tile = tile_of[i];
      const DistancePlan& plan = dist_plans_[i];
      const std::vector<geom::Segment>& first = *chains(plan).first;
      const glsim::WindowTransform xf =
          glsim::WindowTransform::Make(plan.viewport, res, res);
      const auto fill = [&](bool built) {
        if (!built) return;
        const glsim::FillResult fr = atlas_.FillTileSpans(engine, tile, spans);
        batch_counters_.fill_spans += fr.spans;
      };
      for (size_t e = 0; e < first.size(); ++e) {
        const geom::Point a = xf.ToWindow(first[e].a);
        const geom::Point b = xf.ToWindow(first[e].b);
        fill(glsim::ComputeLineAASpans(a, b, plan.width_px, res, res, spans));
        if (e == 0 || !(first[e - 1].b == first[e].a)) {
          fill(glsim::ComputeWidePointSpans(a, plan.width_px, res, res, spans));
        }
        fill(glsim::ComputeWidePointSpans(b, plan.width_px, res, res, spans));
        if (atlas_.TileFull(tile)) {
          ++batch_counters_.fill_saturation_stops;
          if (config_.trace != nullptr) {
            config_.trace->Instant("tile-saturated", "hw");
          }
          break;
        }
      }
    }
    const double fill_ms = fill_watch.ElapsedMillis();
    fill_pmu.reset();
    pass_span.End();
    if (tile_pixels_hist_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (tile_of[i] >= 0) {
          tile_pixels_hist_->Record(atlas_.CountSet(tile_of[i]));
        }
      }
    }

    // Scan pass: the larger chain probes the tile, stopping at the first
    // shared pixel.
    batch_status = atlas_.BeginScan();
    pass_span.Start(config_.trace, "hw-scan", "hw");
    std::optional<obs::PmuScope> scan_pmu(std::in_place, config_.pmu,
                                          obs::PmuStage::kHwScan,
                                          config_.trace);
    Stopwatch scan_watch;
    for (size_t i = 0; i < n && batch_status.ok(); ++i) {
      if (tile_of[i] < 0) continue;
      const int tile = tile_of[i];
      const DistancePlan& plan = dist_plans_[i];
      const std::vector<geom::Segment>& second = *chains(plan).second;
      const glsim::WindowTransform xf =
          glsim::WindowTransform::Make(plan.viewport, res, res);
      bool hit = false;
      const auto probe = [&](bool built) {
        if (!built || hit) return;
        const glsim::ProbeResult pr = atlas_.ProbeTileSpans(engine, tile, spans);
        batch_counters_.scan_spans += pr.spans;
        hit = pr.hit_row >= 0;
      };
      for (size_t e = 0; e < second.size() && !hit; ++e) {
        const geom::Point a = xf.ToWindow(second[e].a);
        const geom::Point b = xf.ToWindow(second[e].b);
        probe(glsim::ComputeLineAASpans(a, b, plan.width_px, res, res, spans));
        if (e == 0 || !(second[e - 1].b == second[e].a)) {
          probe(
              glsim::ComputeWidePointSpans(a, plan.width_px, res, res, spans));
        }
        if (!hit) {
          probe(
              glsim::ComputeWidePointSpans(b, plan.width_px, res, res, spans));
        }
      }
      if (hit) ++batch_counters_.scan_hit_stops;
      hw_overlap[static_cast<size_t>(tile)] = hit ? 1 : 0;
    }
    const double scan_ms = scan_watch.ElapsedMillis();
    scan_pmu.reset();
    pass_span.End();

    if (batch_status.ok()) {
      batch_hw_ok = true;
      dist_.NoteHwSuccess();
      batch_counters_.hw_tests += tiles;
      batch_counters_.hw_ms += fill_ms + scan_ms;
      ++batch_counters_.batch.batches;
      batch_counters_.batch.batched_pairs += tiles;
      batch_counters_.batch.fill_ms += fill_ms;
      batch_counters_.batch.scan_ms += scan_ms;
    }
  }
  if (batch_attempted && !batch_status.ok()) {
    dist_.NoteHwFault();
  }

  for (size_t i = 0; i < n; ++i) {
    const DistancePlan& plan = dist_plans_[i];
    const geom::Polygon& a = *pairs[i].first;
    const geom::Polygon& b = *pairs[i].second;
    bool keep = false;
    switch (plan.stage) {
      case DistancePlan::Stage::kDecided:
        keep = plan.decision;
        break;
      case DistancePlan::Stage::kSoftware:
        keep = dist_.FinishSurvivor(a, b, d);
        break;
      case DistancePlan::Stage::kEmptyClip:
        keep = dist_.FinishEmptyClip(a, b);
        break;
      case DistancePlan::Stage::kHardware:
        if (batch_hw_ok) {
          keep = hw_overlap[static_cast<size_t>(tile_of[i])]
                     ? dist_.FinishSurvivor(a, b, d)
                     : dist_.FinishReject(a, b, d, plan);
        } else {
          bool overlap = false;
          if (const Status hw = dist_.HwStep(plan, &overlap); !hw.ok()) {
            keep = dist_.FinishFallback(a, b, d);
          } else {
            keep = overlap ? dist_.FinishSurvivor(a, b, d)
                           : dist_.FinishReject(a, b, d, plan);
          }
        }
        break;
    }
    verdicts[i] = keep ? 1 : 0;
  }
}

}  // namespace hasj::core
