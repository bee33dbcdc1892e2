#ifndef HASJ_CORE_HW_INTERSECTION_H_
#define HASJ_CORE_HW_INTERSECTION_H_

#include <vector>

#include "algo/segment_tests.h"
#include "common/status.h"
#include "core/degrade.h"
#include "core/hw_config.h"
#include "geom/polygon.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"
#include "glsim/rowspan.h"
#include "obs/metrics.h"

namespace hasj::core {

// Routing decision of the shared per-pair refinement skeleton: Plan()
// classifies a pair, the hardware step (per-pair render or a batch atlas
// tile) resolves kHardware, and the Finish*() methods complete the
// decision. Exposed so BatchHardwareTester (core/batch_tester.h) executes
// the exact same software-side logic as the per-pair Test() — decision
// identity between the two paths then reduces to the hardware step, which
// is bit-identical by construction (glsim/raster.h row-span core).
struct PairPlan {
  enum class Stage {
    kDecided,   // decided without any segment test (MBR miss)
    kSoftware,  // skip hardware, run the exact software confirmation
    kHardware,  // run the hardware segment test over `viewport`
  };
  Stage stage = Stage::kDecided;
  bool decision = false;  // valid for kDecided
  geom::Box viewport;     // valid for kHardware
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
//      is clipped once; see edges_p_ below).
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
  // (DESIGN.md §14); the batch tester renders through the same engine.
  const glsim::RowSpanEngine& engine() const { return *engine_; }

  // Decision skeleton, exposed for BatchHardwareTester (see PairPlan).
  // Test(p, q) == Plan -> [hardware step] -> Finish*, in that order; Plan
  // forgets the previous pair's clipped edges.
  PairPlan Plan(const geom::Polygon& p, const geom::Polygon& q);
  // Completes a pair whose hardware filter kept it (or that skipped the
  // hardware step): exact software segment test, then containment.
  [[nodiscard]] bool FinishSurvivor(const geom::Polygon& p,
                                    const geom::Polygon& q);
  // Completes a hardware reject: counts it, cross-checks conservativeness
  // in a HASJ_PARANOID build, and decides by containment alone.
  [[nodiscard]] bool FinishReject(const geom::Polygon& p,
                                  const geom::Polygon& q,
                                  const geom::Box& viewport);

  // Hardware step of a kHardware plan with degradation routing (DESIGN.md
  // §11): consults the circuit breaker, runs the fault-gated glsim render
  // and scan, and on success stores the conservative filter's verdict in
  // *overlap. Non-OK (kUnavailable/kResourceExhausted) means the hardware
  // path was unavailable for this pair; the caller must FinishFallback.
  [[nodiscard]] Status HwStep(const geom::Polygon& p, const geom::Polygon& q,
                              const geom::Box& viewport, bool* overlap);
  // Completes a pair whose hardware step was unavailable: the exact
  // software decision (identical to FinishSurvivor — skipping the
  // conservative filter is always legal), counted in hw_fallback_pairs.
  [[nodiscard]] bool FinishFallback(const geom::Polygon& p,
                                    const geom::Polygon& q);

  // Batch-tester degradation hooks: whether the breaker admits a whole
  // atlas batch, and the outcome of a batch-level hardware event.
  bool HwBatchAllowed() const { return degrade_.BatchAllowed(); }
  void NoteHwFault();
  void NoteHwSuccess() { degrade_.Note(true, &counters_); }

 private:
  // True if some pixel is covered by both boundaries within the window
  // projected onto `viewport`; non-OK when a fault-gated glsim phase
  // failed (the overlap result is then meaningless).
  [[nodiscard]] Status HwBoundariesOverlap(const geom::Polygon& p,
                                           const geom::Polygon& q,
                                           const geom::Box& viewport,
                                           bool* overlap);

  // Closed-region containment of the pair (either direction), guarded by
  // MBR nesting; deferred to the reject/confirm paths (see Test()).
  bool Containment(const geom::Polygon& p, const geom::Polygon& q);

  // Exact software segment intersection test, with counters: the size-picked
  // engine (algo::RedBlueIntersect) over the pair's in-view edges.
  bool BoundariesCross(const geom::Polygon& p, const geom::Polygon& q);

  // Fills edges_p_/edges_q_ with the in-view edges of (p, q), in polygon
  // order, and marks them as the clip of (p, q).
  void ClipInView(const geom::Polygon& p, const geom::Polygon& q);

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
  // The in-view edges of one pair: edge MBR meets MBR(P) ∩ MBR(Q), the rule
  // the hardware step renders with. ClipInView fills them once per pair:
  // the bitmask step clips before it renders, and the exact test clips
  // only if no bitmask step did. Any crossing point lies in the viewport,
  // so both crossing edges are in view: the lists are a superset of the
  // exact clip, which changes the exact test's cost, never its verdict.
  // Valid only for the pair (clipped_p_, clipped_q_); reused across pairs
  // for capacity.
  std::vector<geom::Segment> edges_p_;
  std::vector<geom::Segment> edges_q_;
  const geom::Polygon* clipped_p_ = nullptr;
  const geom::Polygon* clipped_q_ = nullptr;
  // The exact test's sweep buffers (pairs above algo::kBruteMaxEdgePairs),
  // so that once grown the exact step allocates nothing.
  algo::SweepScratch sweep_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_HW_INTERSECTION_H_
