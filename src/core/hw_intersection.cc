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

PairPlan HwIntersectionTester::Plan(const geom::Polygon& p,
                                    const geom::Polygon& q) {
  ++counters_.tests;
  clipped_p_ = nullptr;
  clipped_q_ = nullptr;
  const int64_t total_vertices =
      static_cast<int64_t>(p.size()) + static_cast<int64_t>(q.size());
  if (pair_vertices_hist_ != nullptr) {
    pair_vertices_hist_->Record(total_vertices);
  }
  PairPlan plan;
  if (!p.Bounds().Intersects(q.Bounds())) {
    ++counters_.mbr_misses;
    plan.stage = PairPlan::Stage::kDecided;
    plan.decision = false;
    return plan;
  }

  // Pure software mode: same refinement without the hardware filter.
  if (!config_.enable_hw) {
    plan.stage = PairPlan::Stage::kSoftware;
    return plan;
  }

  // sw_threshold adaptation (§4.3): simple pairs skip the hardware test.
  if (total_vertices <= config_.sw_threshold) {
    ++counters_.sw_threshold_skips;
    plan.stage = PairPlan::Stage::kSoftware;
    return plan;
  }

  plan.stage = PairPlan::Stage::kHardware;
  plan.viewport = p.Bounds().Intersection(q.Bounds());
  return plan;
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

bool HwIntersectionTester::BoundariesCross(const geom::Polygon& p,
                                           const geom::Polygon& q) {
  ++counters_.sw_tests;
  // Per-pair PMU scope; no trace span — one span per pair would drown the
  // trace, and the pipeline already emits per-stage spans.
  obs::PmuScope pmu(config_.pmu, obs::PmuStage::kExactCompare);
  Stopwatch watch;
  if (clipped_p_ != &p || clipped_q_ != &q) ClipInView(p, q);
  const bool result = algo::RedBlueIntersect(edges_p_, edges_q_, &sweep_);
  counters_.sw_ms += watch.ElapsedMillis();
  return result;
}

void HwIntersectionTester::ClipInView(const geom::Polygon& p,
                                      const geom::Polygon& q) {
  const geom::Box viewport = p.Bounds().Intersection(q.Bounds());
  edges_p_.clear();
  geom::ForEachEdgeNear(p, viewport, [this](const geom::Segment& e) {
    edges_p_.push_back(e);
    return true;
  });
  edges_q_.clear();
  geom::ForEachEdgeNear(q, viewport, [this](const geom::Segment& e) {
    edges_q_.push_back(e);
    return true;
  });
  clipped_p_ = &p;
  clipped_q_ = &q;
}

bool HwIntersectionTester::FinishSurvivor(const geom::Polygon& p,
                                          const geom::Polygon& q) {
  // Software segment intersection test (exact), then containment.
  return BoundariesCross(p, q) || Containment(p, q);
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
  const PairPlan plan = Plan(p, q);
  switch (plan.stage) {
    case PairPlan::Stage::kDecided:
      return plan.decision;
    case PairPlan::Stage::kSoftware:
      return FinishSurvivor(p, q);
    case PairPlan::Stage::kHardware:
      break;
  }

  // Hardware segment intersection test (conservative filter): no shared
  // pixel means the boundaries cannot cross, leaving only containment. An
  // unavailable hardware path (fault or open breaker) degrades to the
  // exact software decision.
  bool overlap = false;
  if (const Status hw = HwStep(p, q, plan.viewport, &overlap); !hw.ok()) {
    return FinishFallback(p, q);
  }
  if (!overlap) return FinishReject(p, q, plan.viewport);
  return FinishSurvivor(p, q);
}

Status HwIntersectionTester::HwStep(const geom::Polygon& p,
                                    const geom::Polygon& q,
                                    const geom::Box& viewport, bool* overlap) {
  if (HASJ_PREDICT_FALSE(!degrade_.Allow())) {
    return Status::Unavailable("hw breaker open");
  }
  Stopwatch watch;
  Status status = HwBoundariesOverlap(p, q, viewport, overlap);
  if (HASJ_PREDICT_FALSE(!status.ok())) {
    NoteHwFault();
    return status;
  }
  // hw_tests counts *completed* hardware executions, so the per-pair and
  // batched paths agree on it under faults too.
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

bool HwIntersectionTester::FinishFallback(const geom::Polygon& p,
                                          const geom::Polygon& q) {
  ++counters_.hw_fallback_pairs;
  return FinishSurvivor(p, q);
}

Status HwIntersectionTester::HwBoundariesOverlap(const geom::Polygon& p,
                                                 const geom::Polygon& q,
                                                 const geom::Box& viewport,
                                                 bool* overlap) {
  // §3.2: project the MBR intersection onto the window and render only the
  // edges whose box meets it (geom::ForEachEdgeNear, a conservative
  // superset of GL clipping). Extra edges only add pixels, and a boundary
  // crossing lies in the viewport, so its two edges are always rendered.
  ctx_.SetDataRect(viewport);
  if (Status s = ctx_.BeginRender(); !s.ok()) return s;
  const int res = config_.resolution;

  if (config_.backend == HwBackend::kBitmask) {
    // Fill and probe run through the row-span kernel engine (DESIGN.md
    // §14): each edge's footprint becomes a row-span buffer, applied to
    // the mask by whole rows instead of per pixel. The pair is clipped
    // first (the exact test reuses the lists). The predicate — some pixel
    // covered by both boundaries — is symmetric, so the side with fewer
    // in-view edges is filled (ties: p) and the other probes it, as
    // HwDistanceTester does. Work that cannot change the answer is skipped
    // before any span is built: a fill whose pixel box (a superset of its
    // spans, glsim::LineAAPixelBox) is already all set, a probe whose box
    // holds no set pixel, and every fill once the mask is full.
    ClipInView(p, q);
    const bool fill_p = edges_p_.size() <= edges_q_.size();
    const std::vector<geom::Segment>& filled = fill_p ? edges_p_ : edges_q_;
    const std::vector<geom::Segment>& probed = fill_p ? edges_q_ : edges_p_;
    const double width = config_.line_width;
    mask_a_.Clear();
    int64_t unset = static_cast<int64_t>(res) * res;
    {
      obs::PmuScope fill_pmu(config_.pmu, obs::PmuStage::kHwFill);
      for (const geom::Segment& e : filled) {
        if (unset == 0) break;
        const geom::Point a = ctx_.ToWindow(e.a);
        const geom::Point b = ctx_.ToWindow(e.b);
        glsim::PixelBox box;
        if (!glsim::LineAAPixelBox(a, b, width, res, res, &box) ||
            mask_a_.AllSet(box)) {
          continue;
        }
        glsim::ComputeLineAASpans(a, b, width, res, res, &spans_);
        const glsim::FillResult fr = mask_a_.FillSpans(*engine_, &spans_);
        counters_.fill_spans += fr.spans;
        unset -= fr.newly_set;
      }
    }
    if (pixels_hist_ != nullptr) {
      pixels_hist_->Record(static_cast<int64_t>(res) * res - unset);
    }
    if (unset == 0) {
      ++counters_.fill_saturation_stops;
      if (config_.trace != nullptr) {
        config_.trace->Instant("hw-saturated", "hw");
      }
    }
    // The scan fault gate is consulted exactly when p has an in-view edge,
    // whichever side was filled, so fault sequences do not depend on it.
    if (edges_p_.empty()) {
      *overlap = false;
      return Status::Ok();
    }
    if (Status s = ctx_.BeginScan(); !s.ok()) return s;
    // The probe kernel stops at the first row containing a doubly-colored
    // pixel — the early-stop point every simd backend must share — and
    // the edge loop stops with it. An empty mask has nothing to hit.
    bool found = false;
    if (!filled.empty()) {
      obs::PmuScope scan_pmu(config_.pmu, obs::PmuStage::kHwScan);
      for (const geom::Segment& e : probed) {
        const geom::Point a = ctx_.ToWindow(e.a);
        const geom::Point b = ctx_.ToWindow(e.b);
        glsim::PixelBox box;
        if (!glsim::LineAAPixelBox(a, b, width, res, res, &box) ||
            !mask_a_.AnySet(box)) {
          continue;
        }
        glsim::ComputeLineAASpans(a, b, width, res, res, &spans_);
        const glsim::ProbeResult pr = mask_a_.ProbeSpans(*engine_, &spans_);
        counters_.scan_spans += pr.spans;
        if (pr.hit_row >= 0) {
          found = true;
          break;
        }
      }
    }
    if (found) ++counters_.scan_hit_stops;
    *overlap = found;
    return Status::Ok();
  }

  // Faithful Algorithm 3.1 (steps 2.1-2.8). The color buffer is cleared
  // between the two renders so GL_ACCUM adds the two boundary images rather
  // than the first image twice (the paper's listing leaves this implicit).
  ctx_.SetLineWidth(config_.line_width);
  ctx_.SetColor(glsim::Rgb{0.5f, 0.5f, 0.5f});
  ctx_.Clear();
  ctx_.ClearAccum();
  const auto draw = [this](const geom::Segment& e) {
    ctx_.DrawSegment(e.a, e.b);
    return true;
  };
  {
    obs::PmuScope fill_pmu(config_.pmu, obs::PmuStage::kHwFill);
    geom::ForEachEdgeNear(p, viewport, draw);
    ctx_.Accum(glsim::AccumOp::kLoad, 1.0f);
  }
  obs::PmuScope scan_pmu(config_.pmu, obs::PmuStage::kHwScan);
  ctx_.Clear();
  geom::ForEachEdgeNear(q, viewport, draw);
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
