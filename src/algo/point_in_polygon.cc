#include "algo/point_in_polygon.h"

#include "geom/predicates.h"

namespace hasj::algo {

PointLocation LocatePoint(geom::Point p, const geom::Polygon& polygon) {
  if (!polygon.Bounds().Contains(p)) return PointLocation::kOutside;

  // Crossing-number with a ray to +x, one EdgeCrossesRayRight test per
  // edge; a point on an edge or vertex is caught before its edge counts.
  bool inside = false;
  const size_t n = polygon.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const geom::Point a = polygon.vertex(j);
    const geom::Point b = polygon.vertex(i);
    if (geom::OnSegment(a, b, p)) return PointLocation::kBoundary;
    if (EdgeCrossesRayRight(a, b, p)) inside = !inside;
  }
  return inside ? PointLocation::kInside : PointLocation::kOutside;
}

}  // namespace hasj::algo
