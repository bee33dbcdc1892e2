#include "algo/point_in_polygon.h"

#include "geom/predicates.h"

namespace hasj::algo {

PointLocation LocatePoint(geom::Point p, const geom::Polygon& polygon) {
  if (!polygon.Bounds().Contains(p)) return PointLocation::kOutside;

  // Crossing-number with a ray to +x, one EdgeCrossesRayRight test per
  // edge; a point on an edge or vertex is caught before its edge counts.
  // Only edges whose box meets the ray (from p to the polygon's right side)
  // are visited: an edge wholly above, below or left of p neither holds p,
  // straddles p's level nor crosses the ray right of p, so skipping it
  // (and whole chains of such edges) leaves the result exact.
  const geom::Box ray(p.x, p.y, polygon.Bounds().max_x, p.y);
  bool inside = false;
  bool boundary = false;
  geom::ForEachEdgeNear(polygon, ray, [&](const geom::Segment& e) {
    if (geom::OnSegment(e.a, e.b, p)) {
      boundary = true;
      return false;
    }
    if (EdgeCrossesRayRight(e.a, e.b, p)) inside = !inside;
    return true;
  });
  if (boundary) return PointLocation::kBoundary;
  return inside ? PointLocation::kInside : PointLocation::kOutside;
}

}  // namespace hasj::algo
