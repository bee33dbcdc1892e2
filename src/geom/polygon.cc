#include "geom/polygon.h"

#include <algorithm>
#include <cmath>

namespace hasj::geom {

Polygon::Polygon(std::vector<Point> vertices)
    : points_(std::move(vertices)), size_(points_.size()) {
  BuildBounds();
}

Polygon::Polygon(Polygon&& other) noexcept
    : points_(std::move(other.points_)),
      size_(std::exchange(other.size_, 0)),
      bounds_(std::exchange(other.bounds_, Box())) {}

Polygon& Polygon::operator=(Polygon&& other) noexcept {
  if (this != &other) {
    points_ = std::move(other.points_);
    size_ = std::exchange(other.size_, 0);
    bounds_ = std::exchange(other.bounds_, Box());
  }
  return *this;
}

void Polygon::BuildBounds() {
  points_.resize(size_);
  bounds_ = Box();
  if (size_ <= kChainEdges) {
    for (const Point& p : points_) bounds_.Extend(p);
    return;
  }
  const size_t chains = (size_ + kChainEdges - 1) / kChainEdges;
  points_.reserve(size_ + 2 * chains);
  for (size_t begin = 0; begin < size_; begin += kChainEdges) {
    const size_t end = std::min(begin + kChainEdges, size_);
    Point lo = points_[end == size_ ? 0 : end];
    Point hi = lo;
    for (size_t i = begin; i < end; ++i) {
      lo.x = std::min(lo.x, points_[i].x);
      lo.y = std::min(lo.y, points_[i].y);
      hi.x = std::max(hi.x, points_[i].x);
      hi.y = std::max(hi.y, points_[i].y);
    }
    points_.push_back(lo);
    points_.push_back(hi);
    bounds_.Extend(lo);
    bounds_.Extend(hi);
  }
}

double Polygon::SignedArea() const {
  const size_t n = size_;
  if (n < 3) return 0.0;
  double sum = 0.0;
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    sum += Cross(points_[j], points_[i]);
  }
  return 0.5 * sum;
}

double Polygon::Area() const { return std::fabs(SignedArea()); }

void Polygon::Reverse() {
  std::reverse(points_.begin(),
               points_.begin() + static_cast<ptrdiff_t>(size_));
  BuildBounds();
}

Status Polygon::Validate() const {
  const size_t n = size_;
  if (n < 3) return Status::InvalidArgument("polygon has fewer than 3 vertices");
  for (size_t i = 0; i < n; ++i) {
    const size_t j = i + 1 == n ? 0 : i + 1;
    if (points_[i] == points_[j]) {
      return Status::InvalidArgument("polygon has consecutive duplicate vertices");
    }
    if (!std::isfinite(points_[i].x) || !std::isfinite(points_[i].y)) {
      return Status::InvalidArgument("polygon has non-finite coordinates");
    }
  }
  // lint:allow(float-eq): exactly-zero area is the degeneracy being rejected
  if (Area() == 0.0) return Status::InvalidArgument("polygon has zero area");
  return Status::Ok();
}

}  // namespace hasj::geom
