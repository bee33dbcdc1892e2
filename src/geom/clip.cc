#include "geom/clip.h"

#include <cmath>

namespace hasj::geom {
namespace {

// One Sutherland-Hodgman pass against a half-plane. `inside` tests the
// half-plane, `cross` computes the border crossing of an edge.
template <typename InsideFn, typename CrossFn>
std::vector<Point> ClipAgainst(const std::vector<Point>& ring,
                               InsideFn inside, CrossFn cross) {
  std::vector<Point> out;
  out.reserve(ring.size() + 4);
  const size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& prev = ring[j];
    const Point& cur = ring[i];
    const bool prev_in = inside(prev);
    const bool cur_in = inside(cur);
    if (cur_in) {
      if (!prev_in) out.push_back(cross(prev, cur));
      out.push_back(cur);
    } else if (prev_in) {
      out.push_back(cross(prev, cur));
    }
  }
  return out;
}

Point CrossAtX(Point a, Point b, double x) {
  const double t = (x - a.x) / (b.x - a.x);
  return {x, a.y + t * (b.y - a.y)};
}

Point CrossAtY(Point a, Point b, double y) {
  const double t = (y - a.y) / (b.y - a.y);
  return {a.x + t * (b.x - a.x), y};
}

}  // namespace

std::vector<Point> ClipPolygonToBox(const Polygon& polygon, const Box& box) {
  if (box.IsEmpty() || !polygon.Bounds().Intersects(box)) return {};
  std::vector<Point> ring(polygon.vertices().begin(),
                         polygon.vertices().end());
  ring = ClipAgainst(
      ring, [&](Point p) { return p.x >= box.min_x; },
      [&](Point a, Point b) { return CrossAtX(a, b, box.min_x); });
  if (ring.empty()) return ring;
  ring = ClipAgainst(
      ring, [&](Point p) { return p.x <= box.max_x; },
      [&](Point a, Point b) { return CrossAtX(a, b, box.max_x); });
  if (ring.empty()) return ring;
  ring = ClipAgainst(
      ring, [&](Point p) { return p.y >= box.min_y; },
      [&](Point a, Point b) { return CrossAtY(a, b, box.min_y); });
  if (ring.empty()) return ring;
  ring = ClipAgainst(
      ring, [&](Point p) { return p.y <= box.max_y; },
      [&](Point a, Point b) { return CrossAtY(a, b, box.max_y); });
  return ring;
}

double ClippedArea(const Polygon& polygon, const Box& box) {
  const std::vector<Point> ring = ClipPolygonToBox(polygon, box);
  const size_t n = ring.size();
  if (n < 3) return 0.0;
  double sum = 0.0;
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    sum += Cross(ring[j], ring[i]);
  }
  return std::fabs(0.5 * sum);
}

}  // namespace hasj::geom
