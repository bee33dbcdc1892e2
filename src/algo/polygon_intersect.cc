#include "algo/polygon_intersect.h"

#include <vector>

#include "algo/point_in_polygon.h"
#include "algo/segment_tests.h"
#include "geom/box.h"
#include "geom/segment.h"

namespace hasj::algo {
namespace {

// Gathers all edges of a polygon (unrestricted search space).
std::vector<geom::Segment> AllEdges(const geom::Polygon& polygon) {
  std::vector<geom::Segment> out;
  out.reserve(polygon.size());
  for (size_t i = 0; i < polygon.size(); ++i) out.push_back(polygon.edge(i));
  return out;
}

}  // namespace

bool PolygonsIntersect(const geom::Polygon& p, const geom::Polygon& q,
                       const SoftwareIntersectOptions& options,
                       IntersectCounters* counters) {
  if (!p.Bounds().Intersects(q.Bounds())) return false;

  // Segment test first: it decides every pair except pure containment.
  if (BoundariesIntersect(p, q, options, counters)) return true;

  // Point-in-Polygon step: with non-crossing boundaries the regions
  // intersect iff one polygon contains the other, which any single vertex
  // witnesses. Containment implies MBR containment, so the O(n) ray test
  // only runs when the MBRs nest.
  if (q.Bounds().Contains(p.Bounds()) && ContainsPoint(q, p.vertex(0))) {
    if (counters != nullptr) ++counters->point_in_polygon_hits;
    return true;
  }
  if (p.Bounds().Contains(q.Bounds()) && ContainsPoint(p, q.vertex(0))) {
    if (counters != nullptr) ++counters->point_in_polygon_hits;
    return true;
  }
  return false;
}

bool BoundariesIntersect(const geom::Polygon& p, const geom::Polygon& q,
                         const SoftwareIntersectOptions& options,
                         IntersectCounters* counters) {
  if (!p.Bounds().Intersects(q.Bounds())) return false;
  // Segment intersection test, restricted to the window where a boundary
  // crossing can occur: any crossing point lies in both MBRs, so both
  // crossing edges intersect MBR(P) ∩ MBR(Q).
  std::vector<geom::Segment> ep, eq;
  if (options.restricted_search) {
    const geom::Box window = p.Bounds().Intersection(q.Bounds());
    ep = EdgesInWindow(p, window);
    if (ep.empty()) return false;
    eq = EdgesInWindow(q, window);
    if (eq.empty()) return false;
  } else {
    ep = AllEdges(p);
    eq = AllEdges(q);
  }
  if (counters != nullptr) {
    ++counters->segment_tests;
    counters->edges_considered += static_cast<int64_t>(ep.size() + eq.size());
  }
  switch (options.engine) {
    case SegmentEngine::kSweep:
      return SweepRedBlueIntersect(ep, eq);
    case SegmentEngine::kBrute:
      return BruteRedBlueIntersect(ep, eq);
    case SegmentEngine::kBySize:
      break;
  }
  return RedBlueIntersect(ep, eq);
}

}  // namespace hasj::algo
