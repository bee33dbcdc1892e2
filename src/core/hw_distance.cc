#include "core/hw_distance.h"

#include <algorithm>
#include <cmath>

#include "algo/point_in_polygon.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/paranoid.h"
#include "glsim/raster.h"
#include "obs/names.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {
namespace {

constexpr float kOverlapThreshold = 0.999f;

// Expands the shorter dimension so the box is square (isotropic pixels).
geom::Box SquareUp(const geom::Box& b) {
  const double side = std::max(b.Width(), b.Height());
  const geom::Point c = b.Center();
  return geom::Box(c.x - side * 0.5, c.y - side * 0.5, c.x + side * 0.5,
                   c.y + side * 0.5);
}

}  // namespace

HwDistanceTester::HwDistanceTester(const HwConfig& config,
                                   const algo::DistanceOptions& sw_options)
    : config_(config),
      sw_options_(sw_options),
      degrade_(config),
      engine_(&glsim::RowSpanEngine::Get(config.simd)),
      ctx_(config.resolution, config.resolution),
      mask_a_(config.resolution, config.resolution) {
  HASJ_CHECK(config.resolution >= 1);
  ctx_.set_limits(config.limits);
  ctx_.set_metrics(config.metrics);
  ctx_.set_faults(config.faults);
  if (config.metrics != nullptr) {
    pair_vertices_hist_ = &config.metrics->GetHistogram(obs::kHistPairVertices);
    pixels_hist_ = &config.metrics->GetHistogram(obs::kHistPixelsColored);
    config.metrics->GetGauge(obs::kHwSimdBackend)
        .Set(engine_->mode() == common::SimdMode::kAvx2 ? 1.0 : 0.0);
  }
}

void HwDistanceTester::Plan(const geom::Polygon& p, const geom::Polygon& q,
                            double d, DistancePlan* plan) {
  HASJ_CHECK(d >= 0.0);
  ++counters_.tests;
  const int64_t total_vertices =
      static_cast<int64_t>(p.size()) + static_cast<int64_t>(q.size());
  if (pair_vertices_hist_ != nullptr) {
    pair_vertices_hist_->Record(total_vertices);
  }
  plan->ep.clear();
  plan->eq.clear();
  if (geom::MinDistance(p.Bounds(), q.Bounds()) > d) {
    ++counters_.mbr_misses;
    plan->stage = DistancePlan::Stage::kDecided;
    plan->decision = false;
    return;
  }

  // Pure software mode: same refinement without the hardware filter.
  if (!config_.enable_hw) {
    plan->stage = DistancePlan::Stage::kSoftware;
    return;
  }

  if (total_vertices <= config_.sw_threshold) {
    ++counters_.sw_threshold_skips;
    plan->stage = DistancePlan::Stage::kSoftware;
    return;
  }

  // Viewport: the smaller object's MBR expanded by d/2 (§3.2), squared up.
  // Any point within d/2 of the smaller boundary — in particular the
  // midpoint of a realizing distance pair — lands inside it.
  const bool p_smaller = p.Bounds().Area() <= q.Bounds().Area();
  const geom::Box base = (p_smaller ? p : q).Bounds().Expanded(d * 0.5);
  plan->viewport = SquareUp(base);
  const double side = std::max(plan->viewport.Width(), plan->viewport.Height());

  // Equation 1: line and point width in pixels covering a dilation of d.
  const double scale = config_.resolution / std::max(side, 1e-300);
  plan->width_px = std::max(config_.line_width, std::ceil(d * scale));
  if (plan->width_px > config_.limits.max_line_width ||
      plan->width_px > config_.limits.max_point_size) {
    ++counters_.width_fallbacks;
    plan->stage = DistancePlan::Stage::kSoftware;
    return;
  }

  // Edges whose d/2-dilation can reach the viewport (cheap conservative
  // bounding-box clip; extra edges only add pixels).
  const geom::Box clip = plan->viewport.Expanded(d * 0.5);
  geom::ForEachEdgeNear(p, clip, [plan](const geom::Segment& e) {
    plan->ep.push_back(e);
    return true;
  });
  // Empty clip sets preclude a close boundary pair but not containment.
  if (plan->ep.empty()) {
    HASJ_PARANOID_ONLY(paranoid::CheckDistanceReject(
        p, q, d, plan->viewport, plan->width_px, config_));
    plan->stage = DistancePlan::Stage::kEmptyClip;
    return;
  }
  geom::ForEachEdgeNear(q, clip, [plan](const geom::Segment& e) {
    plan->eq.push_back(e);
    return true;
  });
  if (plan->eq.empty()) {
    HASJ_PARANOID_ONLY(paranoid::CheckDistanceReject(
        p, q, d, plan->viewport, plan->width_px, config_));
    plan->stage = DistancePlan::Stage::kEmptyClip;
    return;
  }

  plan->stage = DistancePlan::Stage::kHardware;
}

bool HwDistanceTester::Containment(const geom::Polygon& p,
                                   const geom::Polygon& q) {
  // Containment makes the distance 0 with possibly distant boundaries, so a
  // hardware reject (boundaries not within d) does not rule it out. As in
  // the intersection tester, the O(n+m) point-in-polygon check is deferred
  // to the reject path and guarded by MBR nesting; the software distance
  // test handles containment itself.
  Stopwatch watch;
  const bool pip = (q.Bounds().Contains(p.Bounds()) &&
                    algo::ContainsPoint(q, p.vertex(0))) ||
                   (p.Bounds().Contains(q.Bounds()) &&
                    algo::ContainsPoint(p, q.vertex(0)));
  counters_.pip_ms += watch.ElapsedMillis();
  if (pip) ++counters_.pip_hits;
  return pip;
}

bool HwDistanceTester::BoundariesWithin(const geom::Polygon& p,
                                        const geom::Polygon& q, double d) {
  ++counters_.sw_tests;
  // Per-pair PMU scope; no trace span — one span per pair would drown the
  // trace, and the pipeline already emits per-stage spans.
  obs::PmuScope pmu(config_.pmu, obs::PmuStage::kExactCompare);
  Stopwatch watch;
  const bool result = algo::BoundariesWithinDistance(p, q, d, sw_options_);
  counters_.sw_ms += watch.ElapsedMillis();
  return result;
}

bool HwDistanceTester::FinishSurvivor(const geom::Polygon& p,
                                      const geom::Polygon& q, double d) {
  return BoundariesWithin(p, q, d) || Containment(p, q);
}

bool HwDistanceTester::FinishReject(const geom::Polygon& p,
                                    const geom::Polygon& q,
                                    [[maybe_unused]] double d,
                                    [[maybe_unused]] const DistancePlan& plan) {
  ++counters_.hw_rejects;
  HASJ_PARANOID_ONLY(paranoid::CheckDistanceReject(
      p, q, d, plan.viewport, plan.width_px, config_));
  return Containment(p, q);
}

bool HwDistanceTester::Test(const geom::Polygon& p, const geom::Polygon& q,
                            double d) {
  Plan(p, q, d, &plan_scratch_);
  return Finish(p, q, d, plan_scratch_, std::nullopt);
}

bool HwDistanceTester::Finish(const geom::Polygon& p, const geom::Polygon& q,
                              double d, const DistancePlan& plan,
                              std::optional<bool> overlap) {
  switch (plan.stage) {
    case DistancePlan::Stage::kDecided:
      return plan.decision;
    case DistancePlan::Stage::kSoftware:
      return FinishSurvivor(p, q, d);
    case DistancePlan::Stage::kEmptyClip:
      // Reject path, containment alone; the paranoid check ran in Plan().
      return Containment(p, q);
    case DistancePlan::Stage::kHardware:
      break;
  }
  if (!overlap.has_value()) {
    bool hw_overlap = false;
    if (const Status hw = HwStep(plan, &hw_overlap); !hw.ok()) {
      ++counters_.hw_fallback_pairs;
      return FinishSurvivor(p, q, d);
    }
    overlap = hw_overlap;
  }
  if (!*overlap) return FinishReject(p, q, d, plan);
  return FinishSurvivor(p, q, d);
}

StepPair HwDistanceTester::Step(const DistancePlan& plan) const {
  const int res = config_.resolution;
  return StepPair{plan.ep, plan.eq,
                  glsim::WindowTransform::Make(plan.viewport, res, res),
                  plan.width_px, /*caps=*/true};
}

Status HwDistanceTester::HwStep(const DistancePlan& plan, bool* overlap) {
  if (HASJ_PREDICT_FALSE(!degrade_.Allow())) {
    return Status::Unavailable("hw breaker open");
  }
  Stopwatch watch;
  Status status = HwDilatedBoundariesOverlap(plan, overlap);
  if (HASJ_PREDICT_FALSE(!status.ok())) {
    NoteHwFault();
    return status;
  }
  ++counters_.hw_tests;
  counters_.hw_ms += watch.ElapsedMillis();
  degrade_.Note(true, &counters_);
  return status;
}

void HwDistanceTester::NoteHwFault() {
  ++counters_.hw_faults;
  degrade_.Note(false, &counters_);
  if (config_.trace != nullptr) config_.trace->Instant("hw-fault", "fault");
}

Status HwDistanceTester::HwDilatedBoundariesOverlap(const DistancePlan& plan,
                                                    bool* overlap) {
  if (Status s = ctx_.BeginRender(); !s.ok()) return s;

  if (config_.backend == HwBackend::kBitmask) {
    // The shared bitmask step (core/bitmask_step.h): the side with fewer
    // in-view edges is dilated into the mask (it saturates the mask anyway
    // when dense), and the other side probes it.
    const StepPair pair = Step(plan);
    const BitmaskStep step{*engine_, &spans_, &counters_, config_.trace,
                           pixels_hist_};
    mask_a_.Clear();
    int64_t set = 0;
    {
      obs::PmuScope fill_pmu(config_.pmu, obs::PmuStage::kHwFill);
      set = step.Fill(pair, mask_a_.view());
    }
    if (Status s = ctx_.BeginScan(); !s.ok()) return s;
    obs::PmuScope scan_pmu(config_.pmu, obs::PmuStage::kHwScan);
    *overlap = set > 0 && step.Probe(pair, mask_a_.view());
    return Status::Ok();
  }

  const double width_px = plan.width_px;
  ctx_.SetDataRect(plan.viewport);
  ctx_.SetLineWidth(width_px);
  ctx_.SetPointSize(width_px);
  ctx_.SetColor(glsim::Rgb{0.5f, 0.5f, 0.5f});
  const auto draw = [&](const std::vector<geom::Segment>& edges) {
    for (size_t i = 0; i < edges.size(); ++i) {
      ctx_.DrawSegment(edges[i].a, edges[i].b);
      // Chained edges share endpoints; draw each end cap once.
      if (i == 0 || !(edges[i - 1].b == edges[i].a)) {
        const geom::Point pt[1] = {edges[i].a};
        ctx_.DrawPoints(pt);
      }
      const geom::Point pt[1] = {edges[i].b};
      ctx_.DrawPoints(pt);
    }
  };
  ctx_.Clear();
  ctx_.ClearAccum();
  {
    obs::PmuScope fill_pmu(config_.pmu, obs::PmuStage::kHwFill);
    draw(plan.ep);
    ctx_.Accum(glsim::AccumOp::kLoad, 1.0f);
  }
  obs::PmuScope scan_pmu(config_.pmu, obs::PmuStage::kHwScan);
  ctx_.Clear();
  draw(plan.eq);
  ctx_.Accum(glsim::AccumOp::kAccum, 1.0f);
  ctx_.Accum(glsim::AccumOp::kReturn, 1.0f);

  if (Status s = ctx_.BeginScan(); !s.ok()) return s;
  if (config_.use_minmax) {
    *overlap = ctx_.Minmax().max.r >= kOverlapThreshold;
  } else {
    *overlap = ctx_.color_buffer().AnyPixelAtLeast(kOverlapThreshold);
  }
  return Status::Ok();
}

}  // namespace hasj::core
