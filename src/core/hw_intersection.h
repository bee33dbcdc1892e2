#ifndef HASJ_CORE_HW_INTERSECTION_H_
#define HASJ_CORE_HW_INTERSECTION_H_

#include <vector>

#include "algo/segment_tests.h"
#include "common/status.h"
#include "core/bitmask_step.h"
#include "core/degrade.h"
#include "core/hw_config.h"
#include "geom/polygon.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"
#include "glsim/rowspan.h"
#include "obs/metrics.h"

namespace hasj::core {

// Routing decision of the tester's refinement skeleton: Plan() classifies
// a pair and clips it, the hardware step resolves kHardware, and Finish()
// completes the decision.
//
// ep/eq hold the pair's in-view edges (edge MBR meets MBR(P) ∩ MBR(Q), in
// polygon order) for every pair routed to refinement: the hardware step
// renders them and the exact test runs on them, so each pair is clipped
// once. Any crossing point lies in the viewport, so both crossing edges are
// in view: the lists are a superset of the exact clip, which changes the
// exact test's cost, never its verdict. The same clip groups each list into
// chain runs (algo::AppendEdgeRuns) for the run-pair engine. Vectors keep
// their capacity across Plan() calls when the same PairPlan object is
// reused.
struct PairPlan {
  enum class Stage {
    kDecided,   // decided without any segment test (MBR miss)
    kSoftware,  // skip hardware, run the exact software confirmation
    kHardware,  // run the hardware segment test over `viewport`
  };
  Stage stage = Stage::kDecided;
  bool decision = false;  // valid for kDecided
  geom::Box viewport;     // valid for kSoftware / kHardware
  std::vector<geom::Segment> ep;
  std::vector<geom::Segment> eq;
  std::vector<algo::EdgeRun> runs_p;
  std::vector<algo::EdgeRun> runs_q;
};

// Algorithm 3.1: hardware-assisted polygon intersection test.
//
//   1. Software point-in-polygon test (handles containment; O(n+m)).
//   2. Hardware segment intersection test: render both boundaries as
//      anti-aliased line chains into a small window projected onto
//      MBR(P) ∩ MBR(Q); if no pixel is colored by both, the boundaries
//      cannot cross and the pair is rejected.
//   3. Software segment intersection test (exact) for survivors, on the
//      edges the hardware step already clipped to the viewport (each pair
//      is clipped once; see PairPlan), through the run-pair engine
//      (algo::RunPairIntersect).
//
// config.routing picks the pairs that take step 2: every pair past
// sw_threshold (kStatic, the paper's plan) or none (kByCost, the default;
// those pairs go straight to step 3 and count cost_skips).
//
// The hardware step is a conservative filter: the anti-aliased
// rasterization rule colors every pixel a segment passes through, so two
// crossing boundaries always share a pixel. Exactness therefore never
// depends on the window resolution.
//
// The tester owns a render context sized to config.resolution and reuses it
// across calls, as a real implementation reuses its off-screen window.
class HwIntersectionTester {
 public:
  explicit HwIntersectionTester(const HwConfig& config = {});

  // Exact result: true iff the closed regions intersect.
  [[nodiscard]] bool Test(const geom::Polygon& p, const geom::Polygon& q);

  const HwConfig& config() const { return config_; }
  const HwCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = HwCounters{}; }

  // Row-span kernel backend resolved from config.simd at construction
  // (DESIGN.md §14).
  const glsim::RowSpanEngine& engine() const { return *engine_; }

 private:
  // Test(p, q) is Plan(p, q, &plan) then Finish(p, q, plan).
  void Plan(const geom::Polygon& p, const geom::Polygon& q, PairPlan* plan);
  // Completes a planned pair. A kHardware plan runs the hardware step here,
  // with its fault gates and breaker (DESIGN.md §11); an unavailable
  // hardware path degrades to the exact software decision
  // (hw_fallback_pairs).
  [[nodiscard]] bool Finish(const geom::Polygon& p, const geom::Polygon& q,
                            const PairPlan& plan);
  // The hardware step's view of a kHardware plan.
  StepPair Step(const PairPlan& plan) const;

  // Hardware step of a kHardware plan: consults the circuit breaker, runs
  // the fault-gated render and scan, and on success stores the
  // conservative filter's verdict in *overlap. Non-OK
  // (kUnavailable/kResourceExhausted) means the hardware path was
  // unavailable for this pair.
  [[nodiscard]] Status HwStep(const PairPlan& plan, bool* overlap);
  // True if some pixel is covered by both boundaries within the window
  // projected onto the plan's viewport; non-OK when a fault-gated glsim
  // phase failed (the overlap result is then meaningless).
  [[nodiscard]] Status HwBoundariesOverlap(const PairPlan& plan,
                                           bool* overlap);
  // A failed fault-gated glsim phase: counts it and feeds the breaker.
  void NoteHwFault();

  // A pair whose hardware filter kept it (or that skipped the hardware
  // step): exact run-pair segment test, then containment.
  bool FinishSurvivor(const geom::Polygon& p, const geom::Polygon& q,
                      const PairPlan& plan);
  // A hardware reject: counts it, cross-checks conservativeness in a
  // HASJ_PARANOID build, and decides by containment alone.
  bool FinishReject(const geom::Polygon& p, const geom::Polygon& q,
                    const geom::Box& viewport);

  // Closed-region containment of the pair (either direction), guarded by
  // MBR nesting; deferred to the reject/confirm paths (see Finish()).
  bool Containment(const geom::Polygon& p, const geom::Polygon& q);

  HwConfig config_;
  HwCounters counters_;
  HwDegrade degrade_;
  // Resolved once from config.metrics (null when metrics are off), so the
  // per-pair hot path pays a pointer test, not a registry lookup.
  obs::Histogram* pair_vertices_hist_ = nullptr;
  obs::Histogram* pixels_hist_ = nullptr;
  const glsim::RowSpanEngine* engine_;
  glsim::RenderContext ctx_;
  glsim::PixelMask mask_a_;
  // Per-primitive row-span scratch of the bitmask hot path; reused across
  // calls like the render context (RowSpanBuffer is a fixed 64 KiB array,
  // not a heap allocation).
  glsim::RowSpanBuffer spans_;
  PairPlan plan_scratch_;  // reused across Test() calls (edge capacity)
  // The exact test's sweep buffers (pairs above algo::kBruteMaxEdgePairs),
  // so that once grown the exact step allocates nothing.
  algo::SweepScratch sweep_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_HW_INTERSECTION_H_
