#include "algo/polygon_distance.h"

#include <algorithm>
#include <vector>

#include "algo/point_in_polygon.h"
#include "algo/polygon_intersect.h"
#include "algo/segment_tests.h"
#include "geom/box.h"
#include "geom/segment.h"

namespace hasj::algo {
namespace {

// Frontier chain of `polygon` with respect to the other object's MBR: edges
// that can participate in a minimum-distance pair given the upper bound.
std::vector<geom::Segment> FrontierEdges(const geom::Polygon& polygon,
                                         const geom::Box& other_mbr,
                                         double upper_bound) {
  std::vector<geom::Segment> out;
  for (size_t i = 0; i < polygon.size(); ++i) {
    const geom::Segment e = polygon.edge(i);
    if (geom::Distance(e, other_mbr) <= upper_bound) out.push_back(e);
  }
  return out;
}

std::vector<geom::Segment> AllEdges(const geom::Polygon& polygon) {
  std::vector<geom::Segment> out;
  out.reserve(polygon.size());
  for (size_t i = 0; i < polygon.size(); ++i) out.push_back(polygon.edge(i));
  return out;
}

}  // namespace

double PolygonDistanceBrute(const geom::Polygon& p, const geom::Polygon& q) {
  if (PolygonsIntersect(p, q)) return 0.0;
  double best = geom::MaxDistance(p.Bounds(), q.Bounds());
  for (size_t i = 0; i < p.size(); ++i) {
    const geom::Segment e = p.edge(i);
    for (size_t j = 0; j < q.size(); ++j) {
      best = std::min(best, geom::Distance(e, q.edge(j)));
    }
  }
  return best;
}

double PolygonDistance(const geom::Polygon& p, const geom::Polygon& q,
                       const DistanceOptions& options,
                       DistanceCounters* counters) {
  if (PolygonsIntersect(p, q)) return 0.0;

  // Seed the upper bound with the 0-Object MinMax bound, then tighten with
  // one concrete vertex pair so the frontier clip has a real distance to
  // work with.
  double best = geom::MinMaxDistance(p.Bounds(), q.Bounds());
  best = std::min(best, geom::Distance(p.vertex(0), q.vertex(0)));

  std::vector<geom::Segment> ep =
      options.use_frontier ? FrontierEdges(p, q.Bounds(), best) : AllEdges(p);
  std::vector<geom::Segment> eq =
      options.use_frontier ? FrontierEdges(q, p.Bounds(), best) : AllEdges(q);
  if (counters != nullptr) {
    counters->frontier_edges += static_cast<int64_t>(ep.size() + eq.size());
  }

  for (const geom::Segment& e : ep) {
    if (options.prune_edge_pairs &&
        geom::Distance(e, q.Bounds()) > best) {
      continue;
    }
    const geom::Box eb = e.Bounds();
    for (const geom::Segment& f : eq) {
      if (options.prune_edge_pairs && geom::MinDistance(eb, f.Bounds()) > best) {
        continue;
      }
      if (counters != nullptr) ++counters->edge_pairs_tested;
      best = std::min(best, geom::Distance(e, f));
    }
  }
  return best;
}

bool WithinDistance(const geom::Polygon& p, const geom::Polygon& q, double d,
                    const DistanceOptions& options,
                    DistanceCounters* counters) {
  if (geom::MinDistance(p.Bounds(), q.Bounds()) > d) return false;
  if (BoundariesWithinDistance(p, q, d, options, counters)) return true;
  // Only pure containment remains; it implies nested MBRs.
  if (q.Bounds().Contains(p.Bounds()) && ContainsPoint(q, p.vertex(0))) {
    return true;
  }
  if (p.Bounds().Contains(q.Bounds()) && ContainsPoint(p, q.vertex(0))) {
    return true;
  }
  return false;
}

bool BoundariesWithinDistance(const geom::Polygon& p, const geom::Polygon& q,
                              double d, const DistanceOptions& options,
                              DistanceCounters* counters) {
  if (geom::MinDistance(p.Bounds(), q.Bounds()) > d) return false;
  // Crossing boundaries short-circuit via the segment test, which finds a
  // crossing far faster than the edge-pair distance loop.
  if (BoundariesIntersect(p, q)) return true;

  // Candidate edges: only edges intersecting the other MBR extended by d can
  // realize a pair within d (the extension is per-axis, a conservative
  // superset of the Euclidean d-neighborhood).
  std::vector<geom::Segment> ep, eq;
  if (options.use_frontier) {
    ep = EdgesInWindow(p, q.Bounds().Expanded(d));
    if (ep.empty()) return false;
    eq = EdgesInWindow(q, p.Bounds().Expanded(d));
    if (eq.empty()) return false;
  } else {
    ep = AllEdges(p);
    eq = AllEdges(q);
  }
  if (counters != nullptr) {
    counters->frontier_edges += static_cast<int64_t>(ep.size() + eq.size());
  }

  double best = geom::MaxDistance(p.Bounds(), q.Bounds());
  for (const geom::Segment& e : ep) {
    const geom::Box eb = e.Bounds();
    for (const geom::Segment& f : eq) {
      if (options.prune_edge_pairs && geom::MinDistance(eb, f.Bounds()) > d) {
        continue;
      }
      if (counters != nullptr) ++counters->edge_pairs_tested;
      const double dist = geom::Distance(e, f);
      best = std::min(best, dist);
      if (options.early_exit && best <= d) return true;
    }
  }
  return best <= d;
}

}  // namespace hasj::algo
