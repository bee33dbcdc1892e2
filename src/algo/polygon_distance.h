#ifndef HASJ_ALGO_POLYGON_DISTANCE_H_
#define HASJ_ALGO_POLYGON_DISTANCE_H_

#include <cstdint>

#include "geom/polygon.h"

namespace hasj::algo {

// Knobs for the software distance test; defaults reproduce the paper's
// modified minDist algorithm (Chan's frontier chains plus the paper's two
// optimizations: early exit at <= D and D-extended-MBR clipping).
struct DistanceOptions {
  // Restrict each polygon to its frontier chain: edges whose distance to the
  // other MBR does not exceed the current upper bound / query distance.
  bool use_frontier = true;
  // Skip edge pairs whose bounding boxes are farther apart than the current
  // bound (the restricted-search analogue for distance, Figure 9(d)).
  bool prune_edge_pairs = true;
  // For within-distance queries, return as soon as a pair within D is found.
  bool early_exit = true;
};

struct DistanceCounters {
  int64_t edge_pairs_tested = 0;  // segment-segment distance evaluations
  int64_t frontier_edges = 0;     // edges surviving the frontier clip
};

// Reference O(n*m) distance between two simple polygons viewed as closed
// regions: 0 if they intersect, otherwise the minimum boundary-to-boundary
// distance. Ground truth for tests.
double PolygonDistanceBrute(const geom::Polygon& p, const geom::Polygon& q);

// minDist-style exact distance with frontier-chain pruning seeded by the
// MinMax MBR upper bound. Equal to PolygonDistanceBrute on all inputs.
double PolygonDistance(const geom::Polygon& p, const geom::Polygon& q,
                       const DistanceOptions& options = {},
                       DistanceCounters* counters = nullptr);

// The paper's software distance test: true iff the polygons are within
// distance d of each other (closed regions; intersection counts).
bool WithinDistance(const geom::Polygon& p, const geom::Polygon& q, double d,
                    const DistanceOptions& options = {},
                    DistanceCounters* counters = nullptr);

// Boundary-only variant: true iff the boundaries come within distance d
// (crossing boundaries have distance 0). Misses only pure containment;
// callers that have already ruled containment out (or check it separately,
// like the hardware-assisted tester) use this to avoid a redundant
// embedded intersection test.
bool BoundariesWithinDistance(const geom::Polygon& p, const geom::Polygon& q,
                              double d, const DistanceOptions& options = {},
                              DistanceCounters* counters = nullptr);

}  // namespace hasj::algo

#endif  // HASJ_ALGO_POLYGON_DISTANCE_H_
