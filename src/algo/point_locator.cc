#include "algo/point_locator.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "geom/predicates.h"

namespace hasj::algo {

PointLocator::PointLocator(const geom::Polygon& polygon) : polygon_(&polygon) {
  const int n = static_cast<int>(polygon.size());
  HASJ_CHECK(n >= 3);
  const geom::Box& b = polygon.Bounds();
  y0_ = b.min_y;
  const double height = std::max(b.Height(), 1e-300);
  buckets_ = std::clamp(n, 1, 1024);
  inv_dy_ = buckets_ / height;

  const auto bucket_of = [&](double y) {
    const double raw = (y - y0_) * inv_dy_;
    return std::clamp(static_cast<int>(raw), 0, buckets_ - 1);
  };

  // Two-pass counting sort of edge ids into buckets by y-span.
  std::vector<int32_t> counts(static_cast<size_t>(buckets_) + 1, 0);
  for (int e = 0; e < n; ++e) {
    const geom::Segment s = polygon.edge(e);
    const int lo = bucket_of(std::min(s.a.y, s.b.y));
    const int hi = bucket_of(std::max(s.a.y, s.b.y));
    for (int j = lo; j <= hi; ++j) ++counts[static_cast<size_t>(j) + 1];
  }
  offsets_.assign(counts.begin(), counts.end());
  for (int j = 0; j < buckets_; ++j) {
    offsets_[static_cast<size_t>(j) + 1] += offsets_[static_cast<size_t>(j)];
  }
  edges_.resize(static_cast<size_t>(offsets_[static_cast<size_t>(buckets_)]));
  std::vector<int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int e = 0; e < n; ++e) {
    const geom::Segment s = polygon.edge(e);
    const int lo = bucket_of(std::min(s.a.y, s.b.y));
    const int hi = bucket_of(std::max(s.a.y, s.b.y));
    for (int j = lo; j <= hi; ++j) {
      edges_[static_cast<size_t>(cursor[static_cast<size_t>(j)]++)] = e;
    }
  }
}

PointLocation PointLocator::Locate(geom::Point p) const {
  const geom::Polygon& poly = *polygon_;
  if (!poly.Bounds().Contains(p)) return PointLocation::kOutside;

  const double raw = (p.y - y0_) * inv_dy_;
  const int bucket = std::clamp(static_cast<int>(raw), 0, buckets_ - 1);
  const int32_t begin = offsets_[static_cast<size_t>(bucket)];
  const int32_t end = offsets_[static_cast<size_t>(bucket) + 1];

  // Same crossing-number logic as LocatePoint, restricted to the bucket's
  // edges: every edge straddling or touching p's horizontal line has a
  // y-span overlapping this bucket.
  bool inside = false;
  for (int32_t k = begin; k < end; ++k) {
    const geom::Segment s = poly.edge(static_cast<size_t>(edges_[k]));
    if (geom::OnSegment(s.a, s.b, p)) return PointLocation::kBoundary;
    if (EdgeCrossesRayRight(s.a, s.b, p)) inside = !inside;
  }
  return inside ? PointLocation::kInside : PointLocation::kOutside;
}

}  // namespace hasj::algo
