#ifndef HASJ_CORE_HW_DISTANCE_H_
#define HASJ_CORE_HW_DISTANCE_H_

#include <optional>
#include <vector>

#include "algo/polygon_distance.h"
#include "common/status.h"
#include "core/bitmask_step.h"
#include "core/degrade.h"
#include "core/hw_config.h"
#include "geom/polygon.h"
#include "geom/segment.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"
#include "glsim/rowspan.h"
#include "obs/metrics.h"

namespace hasj::core {

// Routing decision of the within-distance refinement skeleton — the
// distance analogue of PairPlan (hw_intersection.h), likewise exposed so
// BatchHardwareTester shares the exact per-pair logic. The in-view dilated
// edge chains are part of the plan because the batch path renders them in
// two atlas passes (all fills, then all probes) and must not re-derive
// them differently. Vectors keep their capacity across Plan() calls when
// the same DistancePlan object is reused.
struct DistancePlan {
  enum class Stage {
    kDecided,    // decided without any test (MBR distance miss)
    kSoftware,   // skip hardware (disabled / sw_threshold / width fallback)
    kEmptyClip,  // a clip set is empty: reject path, containment only
    kHardware,   // render the dilated chains over `viewport`
  };
  Stage stage = Stage::kDecided;
  bool decision = false;  // valid for kDecided
  geom::Box viewport;     // valid for kEmptyClip / kHardware
  double width_px = 0.0;  // valid for kEmptyClip / kHardware
  // In-view dilated edges of p and q (kHardware only).
  std::vector<geom::Segment> ep;
  std::vector<geom::Segment> eq;
};

// Hardware-assisted within-distance test (the distance extension of
// Algorithm 3.1, §3.1): each polygon boundary is rendered dilated by D/2 —
// edges as anti-aliased lines of width D and vertices as wide points of
// size D (together a capsule per edge, the exact Minkowski dilation) — and
// a shared pixel is a necessary condition for the boundaries being within
// distance D.
//
// Deviations from exact paper mechanics, both conservative (see DESIGN.md):
//  * the viewport (the smaller object's MBR expanded by D/2, §3.2) is
//    squared up so pixels are isotropic and the pixel line width
//    ceil(D * resolution / side) dilates by at least D/2 in every
//    direction;
//  * when the needed width exceeds the hardware line-width limit the test
//    falls back to software, exactly as the paper's implementation does
//    (§4.4 explains the resulting degradation at large D).
class HwDistanceTester {
 public:
  explicit HwDistanceTester(const HwConfig& config = {},
                            const algo::DistanceOptions& sw_options = {});

  // Exact result: true iff the closed regions are within distance d.
  [[nodiscard]] bool Test(const geom::Polygon& p, const geom::Polygon& q, double d);

  const HwConfig& config() const { return config_; }
  const HwCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = HwCounters{}; }

  // Decision skeleton, exposed for BatchHardwareTester (see DistancePlan).
  // Test(p, q, d) == Plan(p, q, d, &plan) then Finish(p, q, d, plan, {}).
  // Plan reuses plan->ep/eq capacity; the kEmptyClip paranoid cross-check
  // runs inside Plan(), at the same program point as in the monolithic
  // test.
  void Plan(const geom::Polygon& p, const geom::Polygon& q, double d,
            DistancePlan* plan);
  // Completes a planned pair, as HwIntersectionTester::Finish: `overlap`
  // is the batch atlas tile's verdict for a kHardware plan; without it the
  // per-pair hardware step runs here, with its fault gates and breaker.
  [[nodiscard]] bool Finish(const geom::Polygon& p, const geom::Polygon& q,
                            double d, const DistancePlan& plan,
                            std::optional<bool> overlap);
  // The hardware step's view of a kHardware plan.
  StepPair Step(const DistancePlan& plan) const;

  // Row-span kernel backend resolved from config.simd at construction
  // (DESIGN.md §14); the batch tester renders through the same engine.
  const glsim::RowSpanEngine& engine() const { return *engine_; }

  // Batch-tester degradation hooks (see HwIntersectionTester).
  bool HwBatchAllowed() const { return degrade_.BatchAllowed(); }
  void NoteHwFault();
  void NoteHwSuccess() { degrade_.Note(true, &counters_); }

 private:
  // Hardware step of a kHardware plan with degradation routing, the
  // distance analogue of HwIntersectionTester::HwStep: breaker check,
  // fault-gated dilated render + scan; non-OK means the hardware path was
  // unavailable for this pair (DESIGN.md §11).
  [[nodiscard]] Status HwStep(const DistancePlan& plan, bool* overlap);
  [[nodiscard]] Status HwDilatedBoundariesOverlap(const DistancePlan& plan,
                                                  bool* overlap);

  // Exact software confirmation (survivors and software-routed pairs).
  bool FinishSurvivor(const geom::Polygon& p, const geom::Polygon& q,
                      double d);
  // A hardware reject: counts it, cross-checks in HASJ_PARANOID, decides by
  // containment alone.
  bool FinishReject(const geom::Polygon& p, const geom::Polygon& q, double d,
                    const DistancePlan& plan);

  // Closed-region containment of the pair, guarded by MBR nesting.
  bool Containment(const geom::Polygon& p, const geom::Polygon& q);

  // Exact software within-distance test of the boundaries, with counters.
  bool BoundariesWithin(const geom::Polygon& p, const geom::Polygon& q,
                        double d);

  HwConfig config_;
  algo::DistanceOptions sw_options_;
  HwCounters counters_;
  HwDegrade degrade_;
  // Resolved once from config.metrics (null when metrics are off), so the
  // per-pair hot path pays a pointer test, not a registry lookup.
  obs::Histogram* pair_vertices_hist_ = nullptr;
  obs::Histogram* pixels_hist_ = nullptr;
  DistancePlan plan_scratch_;  // reused across Test() calls (edge capacity)
  const glsim::RowSpanEngine* engine_;
  glsim::RenderContext ctx_;
  glsim::PixelMask mask_a_;
  // Per-primitive row-span scratch of the bitmask hot path (fixed array,
  // reused across calls).
  glsim::RowSpanBuffer spans_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_HW_DISTANCE_H_
