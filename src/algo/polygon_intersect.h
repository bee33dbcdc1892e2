#ifndef HASJ_ALGO_POLYGON_INTERSECT_H_
#define HASJ_ALGO_POLYGON_INTERSECT_H_

#include <cstdint>

#include "geom/polygon.h"

namespace hasj::algo {

// Segment-test engine run on the clipped edge sets.
enum class SegmentEngine {
  // Brute pair loop up to kBruteMaxEdgePairs edge pairs, plane sweep above
  // (algo::RedBlueIntersect): the default, ~10x faster than the sweep on
  // typical clipped pairs while keeping large pairs on the sweep's bound.
  kBySize,
  // Always the O((n+m)log(n+m)) plane sweep: the paper's software baseline,
  // kept so ablations time the sweep itself.
  kSweep,
  // Always the O(n*m) brute pair loop: the reference.
  kBrute,
};

// Knobs for the software intersection test. The defaults are the exact test
// every caller uses; the paper's pure-sweep baseline is engine = kSweep.
struct SoftwareIntersectOptions {
  SegmentEngine engine = SegmentEngine::kBySize;
  // Only consider edges intersecting MBR(P) ∩ MBR(Q) (Figure 9(b)); gives
  // the paper's reported 30-40% practical improvement.
  bool restricted_search = true;
};

// Optional instrumentation populated by PolygonsIntersect.
struct IntersectCounters {
  int64_t point_in_polygon_hits = 0;  // decided by the point-in-polygon step
  int64_t segment_tests = 0;          // pairs that reached a segment test
  int64_t edges_considered = 0;       // edges after restricted-search clip
};

// Exact intersection test between two simple polygons viewed as closed
// regions (touching counts as intersecting). This is the paper's software
// refinement test: Point-in-Polygon first (O(n+m), also handles
// containment), then the segment intersection test on the boundaries.
bool PolygonsIntersect(const geom::Polygon& p, const geom::Polygon& q,
                       const SoftwareIntersectOptions& options = {},
                       IntersectCounters* counters = nullptr);

// The segment-test step alone: true iff the polygon boundaries intersect
// (does not detect containment). Used by WithinDistance and the paranoid
// oracles; the hardware-assisted tester runs the same engine choice on the
// edge lists its hardware step already clipped (core/hw_intersection.h).
bool BoundariesIntersect(const geom::Polygon& p, const geom::Polygon& q,
                         const SoftwareIntersectOptions& options = {},
                         IntersectCounters* counters = nullptr);

}  // namespace hasj::algo

#endif  // HASJ_ALGO_POLYGON_INTERSECT_H_
