#ifndef HASJ_ALGO_POINT_IN_POLYGON_H_
#define HASJ_ALGO_POINT_IN_POLYGON_H_

#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/predicates.h"

namespace hasj::algo {

enum class PointLocation {
  kInside,
  kOutside,
  kBoundary,
};

// Whether edge a->b straddles height y in the crossing-number rule's
// half-open sense, min(a.y, b.y) <= y < max(a.y, b.y): a vertex on a ray at
// height y then counts exactly once and a horizontal edge never.
inline bool StraddlesRayLevel(geom::Point a, geom::Point b, double y) {
  const bool a_below = a.y <= y;
  const bool b_below = b.y <= y;
  return a_below != b_below;
}

// True iff edge a->b straddles p's level and crosses it strictly to the
// right of p, decided by the exact orientation of (a, b, p): an upward edge
// (a below) crosses right of p iff p is strictly left of a->b, a downward
// edge iff strictly right. For any p off the boundary, p is inside exactly
// when an odd number of the polygon's edges satisfy this.
inline bool EdgeCrossesRayRight(geom::Point a, geom::Point b, geom::Point p) {
  if (!StraddlesRayLevel(a, b, p.y)) return false;
  const int orient = geom::Orient2d(a, b, p);
  return a.y <= p.y ? orient > 0 : orient < 0;
}

// Exact point location against a simple polygon via the crossing-number rule
// (the paper's ray-shooting Point-in-Polygon test, O(n)). Boundary cases are
// decided exactly with the robust orientation predicate, so a point on an
// edge or vertex is always reported kBoundary.
PointLocation LocatePoint(geom::Point p, const geom::Polygon& polygon);

// Convenience for closed-region predicates: inside or on the boundary.
inline bool ContainsPoint(const geom::Polygon& polygon, geom::Point p) {
  return LocatePoint(p, polygon) != PointLocation::kOutside;
}

}  // namespace hasj::algo

#endif  // HASJ_ALGO_POINT_IN_POLYGON_H_
