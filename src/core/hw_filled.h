#ifndef HASJ_CORE_HW_FILLED_H_
#define HASJ_CORE_HW_FILLED_H_

#include "core/hw_config.h"
#include "geom/polygon.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"

namespace hasj::core {

// The paper's §3 "general strategy" baseline: render both polygons FILLED
// and search for a doubly-colored pixel. Concave polygons must be
// triangulated in software first — the cost Algorithm 3.1 avoids by
// rendering edge chains (and the reason the paper rejects this approach);
// bench/ablation_filled quantifies the difference.
//
// Exactness is preserved the same way as in the edge-chain tester: the
// triangles are rasterized with conservative closed-cell coverage, so "no
// shared pixel" proves the regions disjoint, and survivors are confirmed
// by the exact software test. Unlike Algorithm 3.1, no point-in-polygon
// step is needed — filled rendering detects containment directly.
class HwFilledIntersectionTester {
 public:
  explicit HwFilledIntersectionTester(const HwConfig& config = {});

  // Exact result: true iff the closed regions intersect.
  [[nodiscard]] bool Test(const geom::Polygon& p, const geom::Polygon& q);

  const HwCounters& counters() const { return counters_; }
  // Time spent in software triangulation (the strategy's Achilles heel).
  double triangulate_ms() const { return triangulate_ms_; }

 private:
  bool FilledRegionsOverlap(const geom::Polygon& p, const geom::Polygon& q,
                            const geom::Box& viewport);

  HwConfig config_;
  HwCounters counters_;
  double triangulate_ms_ = 0.0;
  glsim::RenderContext ctx_;
  glsim::PixelMask mask_a_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_HW_FILLED_H_
