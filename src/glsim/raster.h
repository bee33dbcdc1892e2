#ifndef HASJ_GLSIM_RASTER_H_
#define HASJ_GLSIM_RASTER_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "geom/point.h"
#include "glsim/coverage.h"
#include "glsim/pixel_snap.h"
#include "glsim/rowspan.h"

namespace hasj::glsim {

// Rasterization rules from §2.2 of the paper / the OpenGL specification.
// All functions work in window coordinates, clip to the viewport
// [0, vw) x [0, vh) (in cells), and invoke emit(px, py) once per covered
// pixel. They are templates so the render context's buffer writes inline.
//
// Early-exit contract (RasterizeWidePoint, RasterizeLineAA,
// RasterizeTriangleConservative): emit may return bool, and returning true
// stops the rasterization of the current primitive — the remaining pixels
// are skipped. The bitmask testers' probe loops use this to stop at the
// first doubly-colored pixel instead of clipping and emitting every span
// of the remaining edge. A void-returning emit never stops (the buffer
// writes of the render context).

namespace raster_internal {

// Invokes emit and normalizes its result to the early-exit contract:
// void -> never stop, bool -> stop when true.
template <typename Emit>
inline bool EmitStops(Emit& emit, int x, int y) {
  if constexpr (std::is_same_v<decltype(emit(x, y)), bool>) {
    return emit(x, y);
  } else {
    emit(x, y);
    return false;
  }
}

// Same normalization for row-range emitters: emit_row(c0, c1, y) covers the
// whole closed column range [c0, c1] of row y at once.
template <typename EmitRow>
inline bool EmitRowStops(EmitRow& emit_row, int c0, int c1, int y) {
  if constexpr (std::is_same_v<decltype(emit_row(c0, c1, y)), bool>) {
    return emit_row(c0, c1, y);
  } else {
    emit_row(c0, c1, y);
    return false;
  }
}

// The shrink fault hook and the span buffer moved to glsim scope
// (rowspan.h) with the SIMD core; aliased here so existing callers —
// tests/stress_paranoid_test.cc flips
// glsim::raster_internal::TestCoverageShrink() — keep compiling.
using ::hasj::glsim::TestCoverageShrink;
using RowSpans = ::hasj::glsim::RowSpanBuffer;

// Maps the closed x-interval [xlo, xhi] of row `y` to the cell columns
// whose closed cell intersects it (SnapSpanToCols, rowspan.h — the single
// source of truth shared with the SIMD kernels, which is what makes the
// per-pixel rasterizers and the row-span kernels cover the same pixels,
// DESIGN.md §14) and hands the whole range to emit_row(c0, c1, y) in one
// call.
// Returns true when emit_row stopped the rasterization.
template <typename EmitRow>
bool EmitRowSpanCols(double xlo, double xhi, int y, int vw, EmitRow& emit_row) {
  if (TestCoverageShrink()) {
    xlo += 0.75;
    xhi -= 0.75;  // injected under-coverage: the span may shrink away
  }
  int c0, c1;
  if (!SnapSpanToCols(xlo, xhi, vw, &c0, &c1)) return false;
  return EmitRowStops(emit_row, c0, c1, y);
}

// Per-pixel adapter over EmitRowSpanCols: emits every column of the range
// individually. Returns true when emit stopped the rasterization.
template <typename Emit>
bool EmitRowSpan(double xlo, double xhi, int y, int vw, Emit& emit) {
  auto per_pixel = [&emit](int c0, int c1, int y2) {
    for (int c = c0; c <= c1; ++c) {
      if (EmitStops(emit, c, y2)) return true;
    }
    return false;
  };
  return EmitRowSpanCols(xlo, xhi, y, vw, per_pixel);
}

}  // namespace raster_internal

// Basic point rasterization: window coordinates truncated to integers,
// pixel (floor(x), floor(y)) colored (paper Figure 3(b)).
template <typename Emit>
void RasterizePointTruncate(geom::Point p, int vw, int vh, Emit emit) {
  const double fx = std::floor(p.x);
  const double fy = std::floor(p.y);
  if (fx < 0.0 || fx >= vw || fy < 0.0 || fy >= vh) return;  // clipped
  emit(PixelFromCoord(fx, 0, vw - 1), PixelFromCoord(fy, 0, vh - 1));
}

namespace raster_internal {

// Per-pixel adapter: turns a pixel emitter into a row-range emitter so the
// classic per-pixel rasterizers are thin wrappers over the row-span cores
// below (one span walk, two consumers — per-pixel buffers and the row-span
// kernels — with identical coverage by construction).
template <typename Emit>
auto PerPixelRows(Emit& emit) {
  return [&emit](int c0, int c1, int y) {
    for (int c = c0; c <= c1; ++c) {
      if (EmitStops(emit, c, y)) return true;
    }
    return false;
  };
}

}  // namespace raster_internal

// Row-span core of RasterizeWidePoint: emit_row(c0, c1, y) receives, for
// each covered row, the closed column range of pixels whose (closed) cell
// intersects the disc of diameter `size` centered at p. Conservative
// closed-contact semantics; see coverage.h. The early-exit contract applies
// to emit_row (returning true stops the primitive).
template <typename EmitRow>
void RasterizeWidePointRowSpans(geom::Point p, double size, int vw, int vh,
                                EmitRow emit_row) {
  static thread_local RowSpanBuffer spans;
  if (!ComputeWidePointSpans(p, size, vw, vh, &spans)) return;
  for (int y = spans.row_min; y <= spans.row_max; ++y) {
    if (raster_internal::EmitRowSpanCols(spans.xlo[y], spans.xhi[y], y, vw,
                                         emit_row)) {
      return;
    }
  }
}

// Anti-aliased wide point: every pixel whose (closed) cell intersects the
// disc of diameter `size` centered at p. Conservative closed-contact
// semantics; see coverage.h.
template <typename Emit>
void RasterizeWidePoint(geom::Point p, double size, int vw, int vh, Emit emit) {
  RasterizeWidePointRowSpans(p, size, vw, vh,
                             raster_internal::PerPixelRows(emit));
}

// Row-span core of RasterizeLineAA (same contract as
// RasterizeWidePointRowSpans; the footprint is the paper-Figure-4 width
// rectangle).
template <typename EmitRow>
void RasterizeLineAARowSpans(geom::Point a, geom::Point b, double width,
                             int vw, int vh, EmitRow emit_row) {
  static thread_local RowSpanBuffer spans;
  if (!ComputeLineAASpans(a, b, width, vw, vh, &spans)) return;
  for (int r = spans.row_min; r <= spans.row_max; ++r) {
    if (raster_internal::EmitRowSpanCols(spans.xlo[r], spans.xhi[r], r, vw,
                                         emit_row)) {
      return;
    }
  }
}

// Anti-aliased line segment of width `width`: every pixel whose (closed)
// cell intersects the bounding-rectangle footprint (paper Figure 4). This
// is the rule whose conservativeness the hardware intersection test relies
// on: every pixel the segment passes through is colored.
template <typename Emit>
void RasterizeLineAA(geom::Point a, geom::Point b, double width, int vw,
                     int vh, Emit emit) {
  RasterizeLineAARowSpans(a, b, width, vw, vh,
                          raster_internal::PerPixelRows(emit));
}

// Row-span core of RasterizeTriangleConservative (same contract as above).
template <typename EmitRow>
void RasterizeTriangleRowSpans(geom::Point a, geom::Point b, geom::Point c,
                               int vw, int vh, EmitRow emit_row) {
  HASJ_DCHECK(vh <= RowSpanBuffer::kMaxRows);
  const double miny = std::min(a.y, std::min(b.y, c.y));
  const double maxy = std::max(a.y, std::max(b.y, c.y));
  if (maxy < 0.0 || miny > vh) return;
  static thread_local RowSpanBuffer spans;
  spans.Init(miny, maxy, vh);
  spans.AddEdge(a, b);
  spans.AddEdge(b, c);
  spans.AddEdge(c, a);
  for (int r = spans.row_min; r <= spans.row_max; ++r) {
    if (raster_internal::EmitRowSpanCols(spans.xlo[r], spans.xhi[r], r, vw,
                                         emit_row)) {
      return;
    }
  }
}

// Conservative filled-triangle rasterization: every pixel whose closed
// cell intersects the closed triangle — a superset of GL's center-sampled
// fill. Used by the filled-strategy baseline tester, whose reject decision
// must be conservative exactly like the edge-chain test's.
template <typename Emit>
void RasterizeTriangleConservative(geom::Point a, geom::Point b,
                                   geom::Point c, int vw, int vh, Emit emit) {
  RasterizeTriangleRowSpans(a, b, c, vw, vh,
                            raster_internal::PerPixelRows(emit));
}

// Basic (aliased) line rasterization with the diamond-exit rule (paper
// Figure 3(c)/(d)): a pixel is colored iff the segment intersects its open
// diamond R_f = { |x-xc| + |y-yc| < 1/2 } and the segment's end point does
// not lie inside that diamond. Exhibits the "disappearing segment" behavior
// that makes it unusable for the conservative test; provided for
// completeness and for the tests that reproduce Figure 3(d).
template <typename Emit>
void RasterizeLineDiamondExit(geom::Point a, geom::Point b, int vw, int vh,
                              Emit emit) {
  // Minimum L1 distance from point c to segment [a, b]; the objective is
  // convex piecewise-linear in the parameter, so the minimum is attained at
  // an endpoint or where a coordinate difference changes sign.
  const auto min_l1 = [&](geom::Point c) {
    const geom::Point d = b - a;
    double candidates[4] = {0.0, 1.0, 0.0, 0.0};
    int n = 2;
    if (d.x != 0.0) candidates[n++] = std::clamp((c.x - a.x) / d.x, 0.0, 1.0);
    if (d.y != 0.0) candidates[n++] = std::clamp((c.y - a.y) / d.y, 0.0, 1.0);
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const geom::Point p = a + d * candidates[i];
      best = std::min(best, std::fabs(p.x - c.x) + std::fabs(p.y - c.y));
    }
    return best;
  };

  const int x0 = PixelFromCoord(std::floor(std::min(a.x, b.x)) - 1, 0, vw - 1);
  const int x1 = PixelFromCoord(std::floor(std::max(a.x, b.x)) + 1, 0, vw - 1);
  const int y0 = PixelFromCoord(std::floor(std::min(a.y, b.y)) - 1, 0, vh - 1);
  const int y1 = PixelFromCoord(std::floor(std::max(a.y, b.y)) + 1, 0, vh - 1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const geom::Point center{x + 0.5, y + 0.5};
      if (min_l1(center) >= 0.5) continue;  // does not enter the diamond
      const double end_l1 =
          std::fabs(b.x - center.x) + std::fabs(b.y - center.y);
      if (end_l1 < 0.5) continue;  // ends inside: no exit, not colored
      emit(x, y);
    }
  }
}

// Filled-polygon scanline rasterization with the OpenGL point-sampling
// rule (§2.2.3): a pixel is colored iff its center lies inside the polygon,
// with half-open crossing intervals so that a pixel centered on the shared
// edge of two polygons is colored exactly once across the two.
template <typename Emit>
void RasterizePolygonFill(std::span<const geom::Point> ring, int vw, int vh,
                          Emit emit) {
  HASJ_CHECK(ring.size() >= 3);
  double miny = ring[0].y, maxy = ring[0].y;
  for (const geom::Point& p : ring) {
    miny = std::min(miny, p.y);
    maxy = std::max(maxy, p.y);
  }
  const int y0 = PixelFromCoord(std::floor(miny - 0.5), 0, vh - 1);
  const int y1 = PixelFromCoord(std::floor(maxy), 0, vh - 1);
  std::vector<double> xs;
  for (int y = y0; y <= y1; ++y) {
    const double yc = y + 0.5;
    xs.clear();
    for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
      const geom::Point p = ring[j];
      const geom::Point q = ring[i];
      if ((p.y <= yc) == (q.y <= yc)) continue;  // no straddle (half-open)
      xs.push_back(p.x + (yc - p.y) * (q.x - p.x) / (q.y - p.y));
    }
    std::sort(xs.begin(), xs.end());
    for (size_t k = 0; k + 1 < xs.size(); k += 2) {
      // Pixel centers in [xs[k], xs[k+1]): half-open so shared vertical
      // edges color once.
      const int lo = PixelFromCoord(std::ceil(xs[k] - 0.5), 0, vw - 1);
      const int hi = PixelFromCoord(std::ceil(xs[k + 1] - 0.5) - 1.0, -1, vw - 1);
      for (int px = lo; px <= hi; ++px) emit(px, y);
    }
  }
}

}  // namespace hasj::glsim

#endif  // HASJ_GLSIM_RASTER_H_
