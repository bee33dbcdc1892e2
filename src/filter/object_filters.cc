#include "filter/object_filters.h"

#include <algorithm>
#include <array>

#include "common/macros.h"
#include "geom/segment.h"

namespace hasj::filter {

double ZeroObjectUpperBound(const geom::Box& a, const geom::Box& b) {
  return geom::MinMaxDistance(a, b);
}

namespace {

// Upper bound on the distance from a point to the polygon boundary: the
// minimum over a strided subset of edges (a subset of the boundary can only
// raise the minimum, so the bound stays admissible). The cap keeps the
// filter O(1)-ish per candidate even for polygons with tens of thousands of
// edges, at the price of a slightly weaker bound.
constexpr size_t kMaxEdgesConsidered = 64;

size_t EdgeStride(const geom::Polygon& p) {
  const size_t n = p.size();
  return n <= kMaxEdgesConsidered ? 1 : n / kMaxEdgesConsidered;
}

double DistanceToBoundary(geom::Point q, const geom::Polygon& p) {
  const size_t stride = EdgeStride(p);
  double best = geom::Distance(q, p.edge(0));
  for (size_t i = stride; i < p.size(); i += stride) {
    best = std::min(best, geom::Distance(q, p.edge(i)));
  }
  return best;
}

// The four sides of `mbr`, in the order the bound takes them.
struct Side {
  geom::Point a;
  geom::Point b;
};
std::array<Side, 4> Sides(const geom::Box& mbr) {
  const geom::Point p00{mbr.min_x, mbr.min_y};
  const geom::Point p10{mbr.max_x, mbr.min_y};
  const geom::Point p11{mbr.max_x, mbr.max_y};
  const geom::Point p01{mbr.min_x, mbr.max_y};
  return {{{p00, p10}, {p10, p11}, {p11, p01}, {p01, p00}}};
}

// Sample i of `samples` along a side, and half the gap between samples.
geom::Point Sample(const Side& side, int i, int samples) {
  const double t = static_cast<double>(i) / (samples - 1);
  return side.a + (side.b - side.a) * t;
}
double HalfGap(const Side& side, int samples) {
  return geom::Distance(side.a, side.b) / (samples - 1) * 0.5;
}

// Lipschitz over-estimate of max_{q in side} dist(q, boundary of p).
double MaxDistanceAlongSide(const Side& side, const geom::Polygon& p,
                            int samples) {
  double max_sampled = 0.0;
  for (int i = 0; i < samples; ++i) {
    max_sampled =
        std::max(max_sampled, DistanceToBoundary(Sample(side, i, samples), p));
  }
  // dist(., boundary) is 1-Lipschitz, so between samples it can exceed the
  // sampled maximum by at most half the sample gap.
  return max_sampled + HalfGap(side, samples);
}

}  // namespace

double OneObjectUpperBound(const geom::Polygon& p, const geom::Box& other_mbr,
                           int samples_per_side) {
  HASJ_CHECK(samples_per_side >= 2);
  const std::array<Side, 4> sides = Sides(other_mbr);
  const double s0 = MaxDistanceAlongSide(sides[0], p, samples_per_side);
  const double s1 = MaxDistanceAlongSide(sides[1], p, samples_per_side);
  const double s2 = MaxDistanceAlongSide(sides[2], p, samples_per_side);
  const double s3 = MaxDistanceAlongSide(sides[3], p, samples_per_side);
  return std::min(std::min(s0, s1), std::min(s2, s3));
}

bool OneObjectWithin(const geom::Polygon& p, const geom::Box& other_mbr,
                     double d, int samples_per_side) {
  HASJ_CHECK(samples_per_side >= 2);
  const size_t stride = EdgeStride(p);
  // Whether the strided edges' distance from q, plus h, rounds to <= d —
  // the sample's term of the bound — stopping at the first edge that says so.
  const auto sample_within = [&](geom::Point q, double h) {
    for (size_t e = 0; e < p.size(); e += stride) {
      if (geom::Distance(q, p.edge(e)) + h <= d) return true;
    }
    return false;
  };
  for (const Side& side : Sides(other_mbr)) {
    const double h = HalfGap(side, samples_per_side);
    bool side_within = true;
    for (int i = 0; i < samples_per_side && side_within; ++i) {
      side_within = sample_within(Sample(side, i, samples_per_side), h);
    }
    if (side_within) return true;
  }
  return false;
}

}  // namespace hasj::filter
