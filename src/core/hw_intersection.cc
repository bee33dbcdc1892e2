#include "core/hw_intersection.h"

#include "algo/point_in_polygon.h"
#include "algo/segment_tests.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/paranoid.h"
#include "glsim/raster.h"
#include "obs/names.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {
namespace {

// Overlap pixels carry color 0.5 + 0.5 = 1.0 after accumulation; compare
// against a float-safe threshold.
constexpr float kOverlapThreshold = 0.999f;

}  // namespace

HwIntersectionTester::HwIntersectionTester(const HwConfig& config)
    : config_(config),
      degrade_(config),
      engine_(&glsim::RowSpanEngine::Get(config.simd)),
      ctx_(config.resolution, config.resolution),
      mask_a_(config.resolution, config.resolution) {
  HASJ_CHECK(config.resolution >= 1);
  HASJ_CHECK(config.line_width > 0.0 &&
             config.line_width <= config.limits.max_line_width);
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

void HwIntersectionTester::Plan(const geom::Polygon& p,
                                const geom::Polygon& q, PairPlan* plan) {
  ++counters_.tests;
  const int64_t total_vertices =
      static_cast<int64_t>(p.size()) + static_cast<int64_t>(q.size());
  if (pair_vertices_hist_ != nullptr) {
    pair_vertices_hist_->Record(total_vertices);
  }
  plan->ep.clear();
  plan->eq.clear();
  if (!p.Bounds().Intersects(q.Bounds())) {
    ++counters_.mbr_misses;
    plan->stage = PairPlan::Stage::kDecided;
    plan->decision = false;
    return;
  }

  if (!config_.enable_hw) {
    // Pure software mode: same refinement without the hardware filter.
    plan->stage = PairPlan::Stage::kSoftware;
  } else if (total_vertices <= config_.sw_threshold) {
    // sw_threshold adaptation (§4.3): simple pairs skip the hardware test.
    ++counters_.sw_threshold_skips;
    plan->stage = PairPlan::Stage::kSoftware;
  } else {
    plan->stage = PairPlan::Stage::kHardware;
  }
  // §3.2: the viewport is MBR(P) ∩ MBR(Q); the edges whose box meets it
  // (geom::ForEachEdgeNear, a conservative superset of GL clipping) are the
  // ones the hardware step renders and the exact test compares.
  plan->viewport = p.Bounds().Intersection(q.Bounds());
  geom::ForEachEdgeNear(p, plan->viewport, [plan](const geom::Segment& e) {
    plan->ep.push_back(e);
    return true;
  });
  geom::ForEachEdgeNear(q, plan->viewport, [plan](const geom::Segment& e) {
    plan->eq.push_back(e);
    return true;
  });
}

StepPair HwIntersectionTester::Step(const PairPlan& plan) const {
  const int res = config_.resolution;
  return StepPair{plan.ep, plan.eq,
                  glsim::WindowTransform::Make(plan.viewport, res, res),
                  config_.line_width, /*caps=*/false};
}

bool HwIntersectionTester::Containment(const geom::Polygon& p,
                                       const geom::Polygon& q) {
  // Point-in-polygon step of Algorithm 3.1, deferred: it is only *needed*
  // for pure containment (a boundary crossing is caught by the segment
  // tests), containment implies nested MBRs, and the ray test is O(n+m) —
  // so it runs last and only when the MBRs nest (DESIGN.md lists this
  // reordering; the outcome is identical to the paper's listing).
  Stopwatch watch;
  const bool pip = (q.Bounds().Contains(p.Bounds()) &&
                    algo::ContainsPoint(q, p.vertex(0))) ||
                   (p.Bounds().Contains(q.Bounds()) &&
                    algo::ContainsPoint(p, q.vertex(0)));
  counters_.pip_ms += watch.ElapsedMillis();
  if (pip) ++counters_.pip_hits;
  return pip;
}

bool HwIntersectionTester::FinishSurvivor(const geom::Polygon& p,
                                          const geom::Polygon& q,
                                          const PairPlan& plan) {
  // Exact software segment test (the size-picked engine,
  // algo::RedBlueIntersect, over the in-view edges), then containment.
  ++counters_.sw_tests;
  bool cross = false;
  {
    // Per-pair PMU scope; no trace span — one span per pair would drown the
    // trace, and the pipeline already emits per-stage spans.
    obs::PmuScope pmu(config_.pmu, obs::PmuStage::kExactCompare);
    Stopwatch watch;
    cross = algo::RedBlueIntersect(plan.ep, plan.eq, &sweep_);
    counters_.sw_ms += watch.ElapsedMillis();
  }
  return cross || Containment(p, q);
}

bool HwIntersectionTester::FinishReject(
    const geom::Polygon& p, const geom::Polygon& q,
    [[maybe_unused]] const geom::Box& viewport) {
  ++counters_.hw_rejects;
  HASJ_PARANOID_ONLY(
      paranoid::CheckIntersectionReject(p, q, viewport, config_));
  return Containment(p, q);
}

bool HwIntersectionTester::Test(const geom::Polygon& p,
                                const geom::Polygon& q) {
  Plan(p, q, &plan_scratch_);
  return Finish(p, q, plan_scratch_);
}

bool HwIntersectionTester::Finish(const geom::Polygon& p,
                                  const geom::Polygon& q,
                                  const PairPlan& plan) {
  switch (plan.stage) {
    case PairPlan::Stage::kDecided:
      return plan.decision;
    case PairPlan::Stage::kSoftware:
      return FinishSurvivor(p, q, plan);
    case PairPlan::Stage::kHardware:
      break;
  }

  // Hardware segment intersection test (conservative filter): no shared
  // pixel means the boundaries cannot cross, leaving only containment. An
  // unavailable hardware path (fault or open breaker) degrades to the
  // exact software decision — skipping the conservative filter is always
  // legal.
  bool overlap = false;
  if (const Status hw = HwStep(plan, &overlap); !hw.ok()) {
    ++counters_.hw_fallback_pairs;
    return FinishSurvivor(p, q, plan);
  }
  if (!overlap) return FinishReject(p, q, plan.viewport);
  return FinishSurvivor(p, q, plan);
}

Status HwIntersectionTester::HwStep(const PairPlan& plan, bool* overlap) {
  if (HASJ_PREDICT_FALSE(!degrade_.Allow())) {
    return Status::Unavailable("hw breaker open");
  }
  Stopwatch watch;
  Status status = HwBoundariesOverlap(plan, overlap);
  if (HASJ_PREDICT_FALSE(!status.ok())) {
    NoteHwFault();
    return status;
  }
  // hw_tests counts *completed* hardware executions.
  ++counters_.hw_tests;
  counters_.hw_ms += watch.ElapsedMillis();
  degrade_.Note(true, &counters_);
  return status;
}

void HwIntersectionTester::NoteHwFault() {
  ++counters_.hw_faults;
  degrade_.Note(false, &counters_);
  if (config_.trace != nullptr) config_.trace->Instant("hw-fault", "fault");
}

Status HwIntersectionTester::HwBoundariesOverlap(const PairPlan& plan,
                                                 bool* overlap) {
  // §3.2: project the MBR intersection onto the window and render the
  // plan's in-view edges. Extra edges only add pixels, and a boundary
  // crossing lies in the viewport, so its two edges are always rendered.
  if (Status s = ctx_.BeginRender(); !s.ok()) return s;

  if (config_.backend == HwBackend::kBitmask) {
    // The shared bitmask step (core/bitmask_step.h) through the row-span
    // kernel engine (DESIGN.md §14).
    const StepPair pair = Step(plan);
    const BitmaskStep step{*engine_, &spans_, &counters_, config_.trace,
                           pixels_hist_};
    mask_a_.Clear();
    int64_t set = 0;
    {
      obs::PmuScope fill_pmu(config_.pmu, obs::PmuStage::kHwFill);
      set = step.Fill(pair, mask_a_);
    }
    // The scan fault gate is consulted exactly when p has an in-view edge,
    // whichever side was filled, so fault sequences do not depend on it.
    if (plan.ep.empty()) {
      *overlap = false;
      return Status::Ok();
    }
    if (Status s = ctx_.BeginScan(); !s.ok()) return s;
    // An empty mask has nothing to hit.
    obs::PmuScope scan_pmu(config_.pmu, obs::PmuStage::kHwScan);
    *overlap = set > 0 && step.Probe(pair, mask_a_);
    return Status::Ok();
  }

  // Faithful Algorithm 3.1 (steps 2.1-2.8). The color buffer is cleared
  // between the two renders so GL_ACCUM adds the two boundary images rather
  // than the first image twice (the paper's listing leaves this implicit).
  ctx_.SetDataRect(plan.viewport);
  ctx_.SetLineWidth(config_.line_width);
  ctx_.SetColor(glsim::Rgb{0.5f, 0.5f, 0.5f});
  ctx_.Clear();
  ctx_.ClearAccum();
  const auto draw = [this](const std::vector<geom::Segment>& edges) {
    for (const geom::Segment& e : edges) ctx_.DrawSegment(e.a, e.b);
  };
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
