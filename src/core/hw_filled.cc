#include "core/hw_filled.h"

#include <array>
#include <vector>

#include "algo/polygon_intersect.h"
#include "algo/triangulate.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/paranoid.h"
#include "glsim/raster.h"

namespace hasj::core {

HwFilledIntersectionTester::HwFilledIntersectionTester(const HwConfig& config)
    : config_(config),
      ctx_(config.resolution, config.resolution),
      mask_a_(config.resolution, config.resolution) {
  HASJ_CHECK(config.resolution >= 1);
}

bool HwFilledIntersectionTester::Test(const geom::Polygon& p,
                                      const geom::Polygon& q) {
  ++counters_.tests;
  if (!p.Bounds().Intersects(q.Bounds())) return false;

  // Filled rendering detects containment too: a contained polygon's filled
  // pixels necessarily overlap the container's, so no point-in-polygon
  // step is required — reject means disjoint, keep means "confirm".
  ++counters_.hw_tests;
  const geom::Box viewport = p.Bounds().Intersection(q.Bounds());
  Stopwatch watch;
  const bool overlap = FilledRegionsOverlap(p, q, viewport);
  counters_.hw_ms += watch.ElapsedMillis();
  if (!overlap) {
    ++counters_.hw_rejects;
    HASJ_PARANOID_ONLY(paranoid::CheckFilledReject(p, q, viewport, config_));
    return false;
  }

  ++counters_.sw_tests;
  watch.Restart();
  const bool result = algo::PolygonsIntersect(p, q);
  counters_.sw_ms += watch.ElapsedMillis();
  return result;
}

bool HwFilledIntersectionTester::FilledRegionsOverlap(
    const geom::Polygon& p, const geom::Polygon& q,
    const geom::Box& viewport) {
  ctx_.SetDataRect(viewport);
  const int res = config_.resolution;

  // Software triangulation of both polygons — the per-pair cost the paper's
  // edge-chain algorithm exists to avoid.
  Stopwatch tri_watch;
  const std::vector<std::array<int32_t, 3>> tp = algo::Triangulate(p);
  const std::vector<std::array<int32_t, 3>> tq = algo::Triangulate(q);
  triangulate_ms_ += tri_watch.ElapsedMillis();

  mask_a_.Clear();
  int unset = res * res;
  const auto set = [&](int x, int y) {
    if (!mask_a_.Test(x, y)) {
      mask_a_.Set(x, y);
      --unset;
    }
    return unset == 0;  // saturated: stop drawing (early-exit contract)
  };
  bool any_first = false;
  for (size_t t = 0; t < tp.size() && unset > 0; ++t) {
    const geom::Point a = p.vertex(static_cast<size_t>(tp[t][0]));
    const geom::Point b = p.vertex(static_cast<size_t>(tp[t][1]));
    const geom::Point c = p.vertex(static_cast<size_t>(tp[t][2]));
    geom::Box tri = geom::Box::Empty();
    tri.Extend(a);
    tri.Extend(b);
    tri.Extend(c);
    if (!tri.Intersects(viewport)) continue;
    any_first = true;
    glsim::RasterizeTriangleConservative(ctx_.ToWindow(a), ctx_.ToWindow(b),
                                         ctx_.ToWindow(c), res, res, set);
  }
  if (!any_first) return false;

  // Returning `found` stops the rasterizer at the first doubly-colored
  // pixel (early-exit contract, glsim/raster.h) instead of emitting the
  // rest of the triangle.
  bool found = false;
  const auto probe = [&](int x, int y) {
    found = found || mask_a_.Test(x, y);
    return found;
  };
  for (size_t t = 0; t < tq.size() && !found; ++t) {
    const geom::Point a = q.vertex(static_cast<size_t>(tq[t][0]));
    const geom::Point b = q.vertex(static_cast<size_t>(tq[t][1]));
    const geom::Point c = q.vertex(static_cast<size_t>(tq[t][2]));
    geom::Box tri = geom::Box::Empty();
    tri.Extend(a);
    tri.Extend(b);
    tri.Extend(c);
    if (!tri.Intersects(viewport)) continue;
    glsim::RasterizeTriangleConservative(ctx_.ToWindow(a), ctx_.ToWindow(b),
                                         ctx_.ToWindow(c), res, res, probe);
  }
  return found;
}

}  // namespace hasj::core
