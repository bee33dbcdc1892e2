#ifndef HASJ_GLSIM_ROWSPAN_H_
#define HASJ_GLSIM_ROWSPAN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/macros.h"
#include "common/simd.h"
#include "geom/point.h"
#include "glsim/pixel_snap.h"

namespace hasj::glsim {

// Row-span rasterizer core (DESIGN.md §14).
//
// The hot per-pair fill/probe loops decompose every primitive into one
// x-interval [xlo, xhi] per covered row (a RowSpanBuffer), snap each
// interval to cell columns (SnapSpanToCols — the single source of truth
// shared with the per-pixel rasterizers of raster.h), and apply the
// resulting bit spans to a word-packed pixel buffer. The snapping plus the
// word arithmetic is exactly the wide, regular loop SIMD wants, so the
// buffer->words step is routed through a kernel table (RowSpanKernels)
// with a portable scalar implementation and an AVX2 one, selected at
// startup by RowSpanEngine::Get.
//
// Bit-identity contract: every backend must produce identical words,
// identical span/newly-set counts, and identical early-stop points
// (probe kernels stop at the first *row* containing a hit). Verdicts,
// HwCounters, and the HASJ_PARANOID oracle are therefore backend-invariant
// — enforced by tests/simd_differential_test.cc.
//
// Two buffer layouts cover every consumer:
//  * packed: the whole vw x vh grid fits one uint64_t; pixel (x, y) is bit
//    y*vw + x. This is the small PixelMask (w*h <= 64, the paper's 8x8
//    window).
//  * row-aligned: pixel (x, y) is bit x&63 of word y*stride_words + (x>>6).
//    stride_words == 1 is a PixelMask up to 64 pixels wide; stride_words > 1
//    is the wide PixelMask (vw up to 1024).

// Test-only fault injection: when set, span emission shrinks each span by
// 0.75 px at both ends instead of conservatively closing it, so the spans
// of a default-width (√2 px) line vanish — the seeded coverage-rule bug the
// HASJ_PARANOID oracle must catch (tests/stress_paranoid_test.cc). Never
// set outside tests.
inline bool& TestCoverageShrink() {
  static bool shrink = false;
  return shrink;
}

// Maps the closed x-interval [xlo, xhi] to the cell columns whose closed
// cell intersects it, with a conservative relative tolerance (the same
// reasoning as coverage.cc: rounding must only ever add pixels), clamped
// into [0, vw-1]. Returns false for an empty interval (xlo > xhi — the
// ±inf-initialized untouched rows of a RowSpanBuffer land here). The
// single source of truth for span->column snapping: the per-pixel
// rasterizers, the kernel scalar tails, and the AVX2 quad snap all follow
// exactly this sequence of IEEE operations (kernel TUs are compiled with
// -ffp-contract=off so no backend contracts the tolerance mul+add into an
// FMA), which is what makes every backend produce identical words
// (DESIGN.md §14).
inline bool SnapSpanToCols(double xlo, double xhi, int vw, int* c0, int* c1) {
  if (xlo > xhi) return false;
  const double tol = 1e-12 * (std::fabs(xlo) + std::fabs(xhi)) + 1e-300;
  // Column c (cell [c, c+1]) intersects [xlo, xhi] iff c <= xhi and
  // c+1 >= xlo.
  *c0 = PixelFromCoord(std::ceil(xlo - tol) - 1.0, 0, vw - 1);
  *c1 = PixelFromCoord(std::floor(xhi + tol), 0, vw - 1);
  return true;
}

// Bits c0..c1 inclusive (0 <= c0 <= c1 <= 63).
inline uint64_t RowMask(int c0, int c1) {
  return (~uint64_t{0} >> (63 - (c1 - c0))) << c0;
}

// Per-row x-extents of a convex footprint over the cell rows of a
// viewport. One incremental walk per edge: each border crossing y = k
// contributes its x to the two adjacent rows, each vertex to its own row
// (and, when it sits exactly on a border, to the row below — closed-slab
// semantics). The result per row is exactly the x-projection of
// footprint ∩ closed slab. Untouched rows stay empty (+inf extent), which
// SnapSpanToCols and the kernels treat as "no span".
struct RowSpanBuffer {
  static constexpr int kMaxRows = 4096;
  double xlo[kMaxRows];
  double xhi[kMaxRows];
  int row_min = 0;
  int row_max = -1;

  // Prepares rows covering [ymin, ymax] (one guard row each side), clipped
  // to the viewport.
  void Init(double ymin, double ymax, int vh) {
    row_min = PixelFromCoord(std::floor(ymin) - 1.0, 0, vh - 1);
    row_max = PixelFromCoord(std::floor(ymax) + 1.0, 0, vh - 1);
    for (int r = row_min; r <= row_max; ++r) {
      xlo[r] = std::numeric_limits<double>::infinity();
      xhi[r] = -std::numeric_limits<double>::infinity();
    }
  }

  void Update(int row, double x) {
    xlo[row] = std::min(xlo[row], x);
    xhi[row] = std::max(xhi[row], x);
  }

  // A boundary point at height y: touches row floor(y), and also the row
  // below when it lies exactly on a border. Bounds-checked in double to
  // avoid integer overflow on extreme coordinates.
  void AddPoint(double y, double x) {
    const double f = std::floor(y);
    if (f >= row_min && f <= row_max) Update(PixelFromCoord(f, row_min, row_max), x);
    if (y == f) {
      const double g = f - 1.0;
      if (g >= row_min && g <= row_max) Update(PixelFromCoord(g, row_min, row_max), x);
    }
  }

  // One polygon edge (p -> q, any order).
  void AddEdge(geom::Point p, geom::Point q) {
    if (p.y > q.y) std::swap(p, q);
    AddPoint(p.y, p.x);
    AddPoint(q.y, q.x);
    // Border crossings k in (p.y, q.y): crossing k belongs to rows k-1, k.
    double k0 = std::floor(p.y) + 1.0;
    if (k0 < static_cast<double>(row_min)) k0 = row_min;
    double k1 = std::ceil(q.y) - 1.0;
    const double kmax = static_cast<double>(row_max) + 1.0;
    if (k1 > kmax) k1 = kmax;
    if (k0 > k1) return;  // no crossings: skip the division entirely
    const double slope = (q.x - p.x) / (q.y - p.y);
    for (double k = k0; k <= k1; k += 1.0) {
      const double x = p.x + (k - p.y) * slope;
      const int row = PixelFromCoord(k, row_min, row_max + 1);
      if (row - 1 >= row_min) Update(row - 1, x);
      if (row <= row_max) Update(row, x);
    }
  }
};

// Radius of the wide-point disc of diameter `size` centered at p, with a
// conservative relative tolerance (rounding must only ever add pixels).
inline double WidePointRadius(geom::Point p, double size) {
  const double r = size * 0.5;
  return r + 1e-12 * (r + std::fabs(p.x) + std::fabs(p.y));
}

// Builds the row spans of a wide point (disc of diameter `size` centered
// at p) — the footprint of RasterizeWidePoint. Rows outside the disc stay
// empty. Returns false when the footprint misses the viewport entirely.
inline bool ComputeWidePointSpans(geom::Point p, double size, int /*vw*/,
                                  int vh, RowSpanBuffer* spans) {
  HASJ_DCHECK(vh <= RowSpanBuffer::kMaxRows);
  const double rtol = WidePointRadius(p, size);
  const int y0 = PixelFromCoord(std::floor(p.y - rtol) - 1, 0, vh - 1);
  const int y1 = PixelFromCoord(std::floor(p.y + rtol) + 1, 0, vh - 1);
  spans->row_min = y0;
  spans->row_max = y1;
  for (int y = y0; y <= y1; ++y) {
    // x-extent of disc ∩ slab [y, y+1]: width at the slab's closest y.
    const double dy = std::max({0.0, y - p.y, p.y - (y + 1.0)});
    const double under = rtol * rtol - dy * dy;
    if (under < 0.0) {
      spans->xlo[y] = std::numeric_limits<double>::infinity();
      spans->xhi[y] = -std::numeric_limits<double>::infinity();
      continue;
    }
    const double halfw = std::sqrt(under);
    spans->xlo[y] = p.x - halfw;
    spans->xhi[y] = p.x + halfw;
  }
  return true;
}

// Corners a+h, b+h, b-h, a-h of an anti-aliased segment's footprint (the
// paper-Figure-4 width rectangle, a != b), h the half-width normal;
// computed with a single division (no normalized axes — the scan
// conversion does not need them, unlike the SAT predicate in coverage.h).
// Shared by ComputeLineAASpans and LineAAPixelBox, so both see the same
// corner values.
inline void LineAACorners(geom::Point a, geom::Point b, double width,
                          geom::Point corners[4]) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double scale = (width * 0.5) / std::sqrt(dx * dx + dy * dy);
  const double hx = -dy * scale;
  const double hy = dx * scale;
  corners[0] = {a.x + hx, a.y + hy};
  corners[1] = {b.x + hx, b.y + hy};
  corners[2] = {b.x - hx, b.y - hy};
  corners[3] = {a.x - hx, a.y - hy};
}

// Builds the row spans of an anti-aliased line segment (the paper-Figure-4
// width rectangle; a == b degenerates to the wide point). Returns false
// when the footprint is clipped away — the caller skips the primitive, the
// same decision the emit loop of RasterizeLineAARowSpans used to make.
inline bool ComputeLineAASpans(geom::Point a, geom::Point b, double width,
                               int vw, int vh, RowSpanBuffer* spans) {
  if (a == b) return ComputeWidePointSpans(a, width, vw, vh, spans);
  HASJ_DCHECK(vh <= RowSpanBuffer::kMaxRows);
  geom::Point c[4];
  LineAACorners(a, b, width, c);
  const double miny =
      std::min(std::min(c[0].y, c[1].y), std::min(c[2].y, c[3].y));
  const double maxy =
      std::max(std::max(c[0].y, c[1].y), std::max(c[2].y, c[3].y));
  if (maxy < 0.0 || miny > vh) return false;
  spans->Init(miny, maxy, vh);
  spans->AddEdge(c[0], c[1]);
  spans->AddEdge(c[1], c[2]);
  spans->AddEdge(c[2], c[3]);
  spans->AddEdge(c[3], c[0]);
  return true;
}

// A closed rectangle of window pixels: columns [x0, x1], rows [y0, y1].
struct PixelBox {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
};

// Conservative pixel box of the primitive ComputeLineAASpans(a, b, width,
// vw, vh) builds: every pixel a fill or probe kernel applies for it lies
// in *box, which is never empty and lies inside the window. Returns false
// exactly when ComputeLineAASpans does (*box is then untouched). The
// per-pair tester skips a fill whose box is already fully set and a probe
// whose box holds no set pixel, before generating any span (DESIGN.md §14).
//
// Why it holds every span pixel: a row gets a span only from a footprint
// point at height y (row floor(y), and row y-1 when y is an integer), so
// the rows lie in [ceil(min y) - 1, floor(max y)] over the same corners
// (a == b: the disc's rtol bound). A span's x is a corner x or an
// interpolated border crossing, which rounding can push a few ulps past
// [min x, max x], and a span's snapping tolerance (relative to
// |xlo| + |xhi|) can reach twice the box's: the x pad covers both. The
// columns come from SnapSpanToCols and clamp as the spans do (a footprint
// left of the window still maps to column 0). TestCoverageShrink only
// narrows spans.
inline bool LineAAPixelBox(geom::Point a, geom::Point b, double width, int vw,
                           int vh, PixelBox* box) {
  double minx = 0.0;
  double maxx = 0.0;
  double miny = 0.0;
  double maxy = 0.0;
  if (a == b) {
    // ComputeWidePointSpans's disc: a row's half-width is
    // sqrt(rtol^2 - dy^2) <= sqrt(rtol^2) == rtol (IEEE square root of a
    // rounded square), so rtol bounds every span.
    const double rtol = WidePointRadius(a, width);
    minx = a.x - rtol;
    maxx = a.x + rtol;
    miny = a.y - rtol;
    maxy = a.y + rtol;
  } else {
    geom::Point c[4];
    LineAACorners(a, b, width, c);
    miny = std::min(std::min(c[0].y, c[1].y), std::min(c[2].y, c[3].y));
    maxy = std::max(std::max(c[0].y, c[1].y), std::max(c[2].y, c[3].y));
    if (maxy < 0.0 || miny > vh) return false;
    minx = std::min(std::min(c[0].x, c[1].x), std::min(c[2].x, c[3].x));
    maxx = std::max(std::max(c[0].x, c[1].x), std::max(c[2].x, c[3].x));
    const double pad = 1e-11 * (std::fabs(minx) + std::fabs(maxx));
    minx -= pad;
    maxx += pad;
  }
  box->y0 = PixelFromCoord(std::ceil(miny) - 1.0, 0, vh - 1);
  box->y1 = PixelFromCoord(std::floor(maxy), 0, vh - 1);
  // minx <= maxx, so the interval is never empty and the columns are set.
  SnapSpanToCols(minx, maxx, vw, &box->x0, &box->x1);
  return true;
}

// Result of a fill kernel: how many non-empty row spans were applied, and
// how many previously-unset bits they set (the per-pair `unset` budget and
// the hw.fill_spans counter both hang off this).
struct FillResult {
  int64_t spans = 0;
  int64_t newly_set = 0;
};

// Result of a probe kernel: how many non-empty row spans were probed (up
// to and including the hit row — the early-stop point every backend must
// share), and the first row containing a doubly-colored pixel (-1 = none).
struct ProbeResult {
  int64_t spans = 0;
  int hit_row = -1;
};

// Shared word arithmetic for the row-aligned layout: bits c0..c1 of a row
// of `stride_words` words. Inline in the header so the scalar kernels and
// the AVX2 kernels' wide-row paths execute literally the same code.
inline int64_t FillRowWords(uint64_t* row, int c0, int c1) {
  const int w0 = c0 >> 6;
  const int w1 = c1 >> 6;
  const uint64_t head = ~uint64_t{0} << (c0 & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - (c1 & 63));
  int64_t newly = 0;
  if (w0 == w1) {
    const uint64_t m = head & tail;
    newly += __builtin_popcountll(m & ~row[w0]);
    row[w0] |= m;
    return newly;
  }
  newly += __builtin_popcountll(head & ~row[w0]);
  row[w0] |= head;
  for (int w = w0 + 1; w < w1; ++w) {
    newly += __builtin_popcountll(~row[w]);
    row[w] = ~uint64_t{0};
  }
  newly += __builtin_popcountll(tail & ~row[w1]);
  row[w1] |= tail;
  return newly;
}

inline bool ProbeRowWords(const uint64_t* row, int c0, int c1) {
  const int w0 = c0 >> 6;
  const int w1 = c1 >> 6;
  const uint64_t head = ~uint64_t{0} << (c0 & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - (c1 & 63));
  if (w0 == w1) return (row[w0] & head & tail) != 0;
  if ((row[w0] & head) != 0) return true;
  for (int w = w0 + 1; w < w1; ++w) {
    if (row[w] != 0) return true;
  }
  return (row[w1] & tail) != 0;
}

// The kernel table one backend implements. All kernels walk the buffer's
// rows [row_min, row_max], snap via the SnapSpanToCols contract, and skip
// empty rows without counting them.
//
//  * fill_packed / probe_packed: the whole grid is one word (vw*vh <= 64),
//    pixel (x, y) = bit y*vw + x.
//  * fill_rows / probe_rows: row y starts at words[y*stride_words], pixel
//    x = bit x&63 of word x>>6 (columns pre-clamped to [0, vw) <= 64*stride).
//
// Fill kernels process every row (saturation early-stop lives in the
// callers at primitive granularity — skipped fills on a full buffer are
// all no-ops, so stopping there is observably identical). Probe kernels
// stop at the first row whose span intersects the buffer; `spans` counts
// the non-empty rows probed up to and including that row.
struct RowSpanKernels {
  FillResult (*fill_packed)(const RowSpanBuffer& spans, int vw,
                            uint64_t* word);
  ProbeResult (*probe_packed)(const RowSpanBuffer& spans, int vw,
                              const uint64_t* word);
  FillResult (*fill_rows)(const RowSpanBuffer& spans, int vw,
                          int stride_words, uint64_t* words);
  ProbeResult (*probe_rows)(const RowSpanBuffer& spans, int vw,
                            int stride_words, const uint64_t* words);
};

namespace rowspan_internal {

// Portable backend (rowspan_scalar.cc) — the reference the differential
// tests compare against.
extern const RowSpanKernels kScalarRowSpanKernels;

// AVX2 backend (rowspan_avx2.cc); null when the TU was built without
// -mavx2 (non-x86 hosts, or HASJ_ARCH_FLAGS overridden to a baseline that
// lacks it).
const RowSpanKernels* GetAvx2RowSpanKernels();

}  // namespace rowspan_internal

// Dispatch facade: resolves a SimdMode to a kernel table once (cpuid at
// first use) and applies the test-only coverage-shrink pre-pass so the
// kernels themselves stay branch-free on the fault hook.
class RowSpanEngine {
 public:
  // True when `mode` can run on this host (kScalar and kAuto always can).
  static bool Available(common::SimdMode mode);

  // The engine for `mode`; kAuto resolves to the widest available backend.
  // HASJ_CHECKs that the mode is available — callers asking for an
  // explicit backend (tests, bench --simd) must check Available() first.
  static const RowSpanEngine& Get(common::SimdMode mode);

  // Resolved mode: kScalar or kAvx2, never kAuto.
  common::SimdMode mode() const { return mode_; }
  const char* name() const { return common::SimdModeName(mode_); }
  const RowSpanKernels& kernels() const { return *kernels_; }

  FillResult FillPacked(RowSpanBuffer* spans, int vw, uint64_t* word) const {
    ApplyTestShrink(spans);
    return kernels_->fill_packed(*spans, vw, word);
  }
  ProbeResult ProbePacked(RowSpanBuffer* spans, int vw,
                          const uint64_t* word) const {
    ApplyTestShrink(spans);
    return kernels_->probe_packed(*spans, vw, word);
  }
  FillResult FillRows(RowSpanBuffer* spans, int vw, int stride_words,
                      uint64_t* words) const {
    ApplyTestShrink(spans);
    return kernels_->fill_rows(*spans, vw, stride_words, words);
  }
  ProbeResult ProbeRows(RowSpanBuffer* spans, int vw, int stride_words,
                        const uint64_t* words) const {
    ApplyTestShrink(spans);
    return kernels_->probe_rows(*spans, vw, stride_words, words);
  }

 private:
  RowSpanEngine(common::SimdMode mode, const RowSpanKernels* kernels)
      : mode_(mode), kernels_(kernels) {}

  // The seeded under-coverage bug (TestCoverageShrink above), applied at
  // the same point of the pipeline as the per-pixel rasterizers apply it
  // (between span construction and column snapping) so the HASJ_PARANOID
  // oracle sees the identical violation through every backend.
  static void ApplyTestShrink(RowSpanBuffer* spans) {
    if (!TestCoverageShrink()) return;
    for (int r = spans->row_min; r <= spans->row_max; ++r) {
      if (spans->xlo[r] > spans->xhi[r]) continue;  // already empty
      spans->xlo[r] += 0.75;
      spans->xhi[r] -= 0.75;
    }
  }

  common::SimdMode mode_;
  const RowSpanKernels* kernels_;
};

}  // namespace hasj::glsim

#endif  // HASJ_GLSIM_ROWSPAN_H_
