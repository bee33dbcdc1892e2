#ifndef HASJ_GEOM_POLYGON_H_
#define HASJ_GEOM_POLYGON_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geom/box.h"
#include "geom/segment.h"

namespace hasj::geom {

// Simple polygon: a single closed ring of vertices without the closing
// duplicate (edge i runs from vertex i to vertex (i+1) mod n). The paper's
// datasets are simple polygons; holes and multipolygons are out of scope
// (see DESIGN.md).
//
// The ring orientation is not enforced; use SignedArea()/Reverse() if a
// specific orientation is needed. The bounding box is computed on
// construction and cached, since MBRs are consulted constantly by the
// filtering steps.
//
// Chain boxes: the construction pass also bounds each run of kChainEdges
// consecutive edges. Box j covers vertices kChainEdges*j through
// min(kChainEdges*(j+1), size()), both ends inclusive, where vertex size()
// is vertex 0: the end vertex of the chain's last edge. A polygon of at
// most kChainEdges edges has none (its one box would be Bounds()). Every
// viewport clip goes through them (ForEachEdgeNear below): the restricted
// search of Brinkhoff et al. applied one level up, since a chain whose box
// misses the window holds no edge that meets it. The box corners are
// stored after the vertices in one allocation, so a copy is still one
// allocation.
class Polygon {
 public:
  // Edges per chain box. In a probe on LANDC x LANDO candidates, 16 edges
  // per box clipped equally fast with twice the boxes, and 64 slower.
  static constexpr size_t kChainEdges = 32;

  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices);
  Polygon(const Polygon&) = default;
  Polygon& operator=(const Polygon&) = default;
  // A moved-from polygon is empty.
  Polygon(Polygon&& other) noexcept;
  Polygon& operator=(Polygon&& other) noexcept;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Point& vertex(size_t i) const { return points_[i]; }
  std::span<const Point> vertices() const { return {points_.data(), size_}; }

  // Edge from vertex i to vertex (i+1) mod size().
  Segment edge(size_t i) const {
    const size_t j = i + 1 == size_ ? 0 : i + 1;
    return Segment(points_[i], points_[j]);
  }

  const Box& Bounds() const { return bounds_; }

  // Chain box j (see the class comment), for j < chain_count().
  size_t chain_count() const { return (points_.size() - size_) / 2; }
  Box chain_box(size_t j) const {
    const Point& lo = points_[size_ + 2 * j];
    const Point& hi = points_[size_ + 2 * j + 1];
    return Box(lo.x, lo.y, hi.x, hi.y);
  }

  // Positive for counter-clockwise rings (shoelace formula).
  double SignedArea() const;
  double Area() const;
  bool IsCcw() const { return SignedArea() > 0.0; }
  void Reverse();

  // Checks the polygon is usable by the library: at least 3 vertices, no
  // consecutive duplicate vertices, nonzero area. (Full simplicity is
  // checked by algo::IsSimple, which is O(n^2) and test-oriented.)
  [[nodiscard]] Status Validate() const;

 private:
  // Computes bounds_ and appends the chain boxes after the vertices.
  void BuildBounds();

  // The size_ vertices, then the min and max corner of each chain box.
  std::vector<Point> points_;
  size_t size_ = 0;
  Box bounds_;
};

// Visits, in edge order, every edge of `polygon` whose bounding box meets
// the closed `window`; `fn(const Segment&)` returns false to stop. Chains
// whose box misses the window are skipped whole: an edge's box lies in its
// chain's box, so a skipped chain holds no edge that would be visited. An
// edge that meets the window has a box that meets it, so a caller may
// refine the visit with an exact test such as SegmentIntersectsBox.
template <typename Fn>
void ForEachEdgeNear(const Polygon& polygon, const Box& window, Fn&& fn) {
  if (window.IsEmpty()) return;
  const size_t n = polygon.size();
  // Edges [begin, end); false once fn asked to stop.
  const auto visit = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Segment e = polygon.edge(i);
      if (std::min(e.a.x, e.b.x) <= window.max_x &&
          window.min_x <= std::max(e.a.x, e.b.x) &&
          std::min(e.a.y, e.b.y) <= window.max_y &&
          window.min_y <= std::max(e.a.y, e.b.y) && !fn(e)) {
        return false;
      }
    }
    return true;
  };
  const size_t chains = polygon.chain_count();
  if (chains == 0) {
    visit(0, n);
    return;
  }
  for (size_t j = 0; j < chains; ++j) {
    const Box box = polygon.chain_box(j);
    if (box.min_x > window.max_x || window.min_x > box.max_x ||
        box.min_y > window.max_y || window.min_y > box.max_y) {
      continue;
    }
    const size_t begin = j * Polygon::kChainEdges;
    if (!visit(begin, std::min(begin + Polygon::kChainEdges, n))) return;
  }
}

}  // namespace hasj::geom

#endif  // HASJ_GEOM_POLYGON_H_
