#include "filter/interval_approx.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "algo/point_in_polygon.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "geom/point.h"
#include "geom/segment.h"
#include "glsim/pixel_snap.h"
#include "glsim/raster.h"
#include "obs/names.h"

namespace hasj::filter {
namespace {

constexpr int kMaxGridBits = 12;
// Per-object scratch cap: an object whose MBR cell window exceeds this many
// cells stays unapproximated rather than allocating an unbounded local grid.
constexpr int64_t kMaxScratchCells = int64_t{1} << 22;
// Enumeration half-width margin, in grid units. The row-span rasterizer is
// only used to *enumerate candidate* cells (every mark is re-confirmed with
// the exact segment/box predicate), so a tiny widening costs a few spurious
// candidates and buys robustness against world->grid coordinate rounding.
constexpr double kEnumWidth = 1e-7;

// The dataset frame mapped onto the 2^bits x 2^bits cell grid. Grid
// coordinate g = (world - frame.min) / cell_size, so cell (gx, gy) covers
// the closed grid square [gx, gx+1] x [gy, gy+1].
struct GridFrame {
  geom::Box frame;
  int n = 0;
  double cell_w = 0.0;
  double cell_h = 0.0;
  double inv_cell_w = 0.0;
  double inv_cell_h = 0.0;

  double GridX(double x) const { return (x - frame.min_x) * inv_cell_w; }
  double GridY(double y) const { return (y - frame.min_y) * inv_cell_h; }
  geom::Box CellBox(int gx, int gy) const {
    return geom::Box(frame.min_x + gx * cell_w, frame.min_y + gy * cell_h,
                     frame.min_x + (gx + 1) * cell_w,
                     frame.min_y + (gy + 1) * cell_h);
  }
  // CellBox(gx, gy).Center().y for every gx, bit for bit.
  double ProbeY(int gy) const { return CellBox(0, gy).Center().y; }
};

GridFrame MakeGridFrame(const geom::Box& frame, int grid_bits) {
  GridFrame gf;
  gf.frame = frame;
  gf.n = 1 << grid_bits;
  gf.cell_w = frame.Width() / gf.n;
  gf.cell_h = frame.Height() / gf.n;
  gf.inv_cell_w = 1.0 / gf.cell_w;
  gf.inv_cell_h = 1.0 / gf.cell_h;
  return gf;
}

// Conservative closed grid-coordinate interval [g0, g1] -> closed cell
// index range: the same snap formula as glsim raster_internal's
// EmitRowSpanCols (cell c covers [c, c+1]; rounding only ever widens the
// range), clamped to the grid.
std::pair<int, int> CellRange(double g0, double g1, int n) {
  const double tol = 1e-12 * (std::fabs(g0) + std::fabs(g1)) + 1e-300;
  const int c0 = glsim::PixelFromCoord(std::ceil(g0 - tol) - 1.0, 0, n - 1);
  const int c1 = glsim::PixelFromCoord(std::floor(g1 + tol), 0, n - 1);
  return {c0, c1};
}

// Cell kinds, ordered so that FULL ∪ PARTIAL is `kind >= kPartial`.
enum : uint8_t { kEmpty = 0, kPartial = 1, kFull = 2 };

// One object's working memory. A dataset build keeps one per worker and
// reuses it from object to object; ApproximateObject makes its own, so
// concurrent query approximations share nothing.
struct BuildScratch {
  std::vector<uint8_t> cells;       // window cell kinds, row-major
  std::vector<uint32_t> row_begin;  // window row y's straddling edges are
  std::vector<uint32_t> row_edges;  //   row_edges[row_begin[y], row_begin[y+1])
  std::vector<uint32_t> counts;     // summed-area table, (vw+1) x (vh+1)
};

// Buckets each edge into the window rows whose probe height it straddles.
// CellRange gives the candidate rows conservatively; each is then confirmed
// with LocatePoint's own comparison against the row's probe height, so a
// row's list is exactly the set of edges LocatePoint would count crossings
// for at any probe in that row.
void BucketRowEdges(const geom::Polygon& polygon, const GridFrame& gf,
                    int cy0, int vh, BuildScratch& scratch) {
  const auto for_each_straddle = [&](auto&& visit) {
    for (size_t e = 0; e < polygon.size(); ++e) {
      const geom::Segment seg = polygon.edge(e);
      const auto [r0, r1] =
          CellRange(gf.GridY(std::min(seg.a.y, seg.b.y)),
                    gf.GridY(std::max(seg.a.y, seg.b.y)), gf.n);
      for (int gy = std::max(r0, cy0); gy <= std::min(r1, cy0 + vh - 1);
           ++gy) {
        if (algo::StraddlesRayLevel(seg.a, seg.b, gf.ProbeY(gy))) {
          visit(gy - cy0, static_cast<uint32_t>(e));
        }
      }
    }
  };
  std::vector<uint32_t>& begin = scratch.row_begin;
  begin.assign(static_cast<size_t>(vh) + 1, 0);
  for_each_straddle([&](int y, uint32_t) { ++begin[static_cast<size_t>(y)]; });
  // Inclusive prefix sums make begin[y] the end of row y; the fill below
  // decrements each back to its row's start.
  for (int y = 1; y < vh; ++y) begin[y] += begin[y - 1];
  begin[vh] = begin[vh - 1];
  scratch.row_edges.resize(begin[vh]);
  for_each_straddle([&](int y, uint32_t e) {
    scratch.row_edges[--begin[static_cast<size_t>(y)]] = e;
  });
}

// Marks FULL every maximal run of non-PARTIAL cells in a row whose first
// cell's centre is inside the polygon. Returns whether any cell became FULL.
//
// The verdict is LocatePoint's, computed from the row's straddling edges
// only. A non-PARTIAL cell's closed box touches no edge, so its centre lies
// on no edge and LocatePoint's answer there is the crossing parity over the
// edges that straddle the centre's height; its MBR early-out agrees, since
// a closed ring straddles any height an even number of times, all of them
// to one side of a point left or right of the MBR. A run has no boundary
// contact, so it is connected and uniformly interior or exterior, and one
// probe decides it.
bool MarkFullRuns(const geom::Polygon& polygon, const GridFrame& gf, int cx0,
                  int cy0, int vw, int vh, BuildScratch& scratch) {
  BucketRowEdges(polygon, gf, cy0, vh, scratch);
  bool any_full = false;
  for (int y = 0; y < vh; ++y) {
    const uint32_t* edges_begin =
        scratch.row_edges.data() + scratch.row_begin[y];
    const uint32_t* edges_end =
        scratch.row_edges.data() + scratch.row_begin[y + 1];
    if (edges_begin == edges_end) continue;  // no crossing: all outside
    uint8_t* row = scratch.cells.data() + static_cast<size_t>(y) * vw;
    int x = 0;
    while (x < vw) {
      if (row[x] == kPartial) {
        ++x;
        continue;
      }
      int run_end = x;
      while (run_end < vw && row[run_end] != kPartial) ++run_end;
      const geom::Point probe = gf.CellBox(cx0 + x, cy0 + y).Center();
      bool inside = false;
      for (const uint32_t* e = edges_begin; e != edges_end; ++e) {
        const geom::Segment seg = polygon.edge(*e);
        if (algo::EdgeCrossesRayRight(seg.a, seg.b, probe)) inside = !inside;
      }
      if (inside) {
        std::fill(row + x, row + run_end, uint8_t{kFull});
        any_full = true;
      }
      x = run_end;
    }
  }
  return any_full;
}

// Summed-area table over the window of the cells of kind `min_kind` or
// above (kPartial: every marked cell; kFull: FULL cells only):
// counts[y * (vw + 1) + x] is the number of such cells in [0, x) x [0, y).
void BuildCounts(const std::vector<uint8_t>& cells, int vw, int vh,
                 uint8_t min_kind, std::vector<uint32_t>& counts) {
  const size_t stride = static_cast<size_t>(vw) + 1;
  counts.assign(stride * (static_cast<size_t>(vh) + 1), 0);
  for (int y = 0; y < vh; ++y) {
    const uint8_t* row = cells.data() + static_cast<size_t>(y) * vw;
    const uint32_t* above = counts.data() + static_cast<size_t>(y) * stride;
    uint32_t* out = counts.data() + static_cast<size_t>(y + 1) * stride;
    uint32_t row_sum = 0;
    for (int x = 0; x < vw; ++x) {
      row_sum += row[x] >= min_kind ? 1 : 0;
      out[x + 1] = above[x + 1] + row_sum;
    }
  }
}

// Reads a window's counted cells off a summed-area table as maximal
// Hilbert runs, by descending the curve over aligned blocks: a block with no
// counted cell is skipped, a block whose s*s cells are all counted (so it
// lies inside the window) is one run [d0, d0 + s*s), and any other block is
// split. Blocks are visited in increasing index, so adjacent runs merge as
// they are appended and the list equals sorting every counted cell by
// HilbertIndex and joining consecutive indices.
//
// A block's orientation follows HilbertIndex's rotate rule as one of four
// states: bit 0 transposes and bit 1 complements both quadrant bits, so the
// identity is 0, the transpose 1, the 180-degree turn 2 and the
// anti-transpose 3, and composing two states is XOR. In canonical
// orientation the quadrants (qx, qy) come in the order (0,0), (0,1), (1,1),
// (1,0); the (0,0) child transposes and the (1,0) child anti-transposes.
class HilbertRunEmitter {
 public:
  HilbertRunEmitter(const std::vector<uint32_t>& counts, int grid_bits,
                    int cx0, int cy0, int vw, int vh)
      : counts_(counts),
        side_(uint32_t{1} << grid_bits),
        stride_(static_cast<size_t>(vw) + 1),
        cx0_(cx0),
        cy0_(cy0),
        cx1_(cx0 + vw),
        cy1_(cy0 + vh) {}

  void Emit(std::vector<CellInterval>& out) const {
    Descend(side_, 0, 0, 0, 0, out);
  }

 private:
  // Block [x0, x0 + s) x [y0, y0 + s) holds the indices [d0, d0 + s*s).
  void Descend(uint32_t s, int x0, int y0, uint32_t d0, unsigned turn,
               std::vector<CellInterval>& out) const {
    const int bx0 = std::max(x0, cx0_) - cx0_;
    const int by0 = std::max(y0, cy0_) - cy0_;
    const int bx1 = std::min(x0 + static_cast<int>(s), cx1_) - cx0_;
    const int by1 = std::min(y0 + static_cast<int>(s), cy1_) - cy0_;
    if (bx0 >= bx1 || by0 >= by1) return;
    const uint32_t counted = Count(bx0, by0, bx1, by1);
    if (counted == 0) return;
    if (counted == s * s) {
      if (!out.empty() && out.back().hi == d0) {
        out.back().hi = d0 + s * s;
      } else {
        out.push_back({d0, d0 + s * s});
      }
      return;
    }
    constexpr unsigned kChildTurn[4] = {1, 0, 0, 3};
    const uint32_t h = s / 2;
    for (unsigned k = 0; k < 4; ++k) {
      unsigned qx = k >> 1;
      unsigned qy = (k ^ (k >> 1)) & 1;
      if ((turn & 1) != 0) std::swap(qx, qy);
      if ((turn & 2) != 0) {
        qx ^= 1;
        qy ^= 1;
      }
      Descend(h, x0 + static_cast<int>(qx * h), y0 + static_cast<int>(qy * h),
              d0 + k * h * h, turn ^ kChildTurn[k], out);
    }
  }

  // Counted cells in window-relative [x0, x1) x [y0, y1); unsigned
  // wrap-around cancels in the sum.
  uint32_t Count(int x0, int y0, int x1, int y1) const {
    const auto at = [this](int x, int y) {
      return counts_[static_cast<size_t>(y) * stride_ + x];
    };
    return at(x1, y1) - at(x0, y1) - at(x1, y0) + at(x0, y0);
  }

  const std::vector<uint32_t>& counts_;  // may be rebuilt between Emit calls
  uint32_t side_;
  size_t stride_;
  int cx0_;
  int cy0_;
  int cx1_;
  int cy1_;
};

// Rasterizes one polygon onto the global grid and compresses the marked
// cells into Hilbert-interval lists. Past the PARTIAL step the cost is a
// few passes over the window plus, per run, a parity over its row's
// straddling edges: no point location over the whole ring, no sort.
// Returns approximated == false (an empty, always-inconclusive
// approximation) when the object exceeds the scratch cap or its interval
// lists exceed `max_bytes`.
//
// Cell classification is honest in both directions (the header explains why
// HIT soundness needs more than superset-conservative marking):
//   PARTIAL: the glsim row-span rasterizer enumerates a guaranteed superset
//     of the cells each boundary edge touches; the exact SegmentIntersectsBox
//     predicate confirms genuine closed contact before the mark.
//   FULL: MarkFullRuns decides each row's runs of non-PARTIAL cells by the
//     exact crossing parity over the edges straddling the row, which is the
//     verdict LocatePoint gives at the run's first cell centre. Degenerate
//     polygons (fewer than 3 vertices or zero area) have no interior and
//     never produce FULL cells.
// HilbertRunEmitter then reads both lists off summed-area counts.
ObjectIntervals BuildObjectIntervals(const geom::Polygon& polygon,
                                     const GridFrame& gf, int grid_bits,
                                     int64_t max_bytes, BuildScratch& scratch) {
  ObjectIntervals out;
  if (polygon.size() == 0) return out;
  const geom::Box& mbr = polygon.Bounds();
  const auto [cx0, cx1] =
      CellRange(gf.GridX(mbr.min_x), gf.GridX(mbr.max_x), gf.n);
  const auto [cy0, cy1] =
      CellRange(gf.GridY(mbr.min_y), gf.GridY(mbr.max_y), gf.n);
  const int vw = cx1 - cx0 + 1;
  const int vh = cy1 - cy0 + 1;
  if (static_cast<int64_t>(vw) * vh > kMaxScratchCells) return out;

  std::vector<uint8_t>& cells = scratch.cells;
  cells.assign(static_cast<size_t>(vw) * vh, kEmpty);
  for (size_t e = 0; e < polygon.size(); ++e) {
    const geom::Segment seg = polygon.edge(e);
    const geom::Point la{gf.GridX(seg.a.x) - cx0, gf.GridY(seg.a.y) - cy0};
    const geom::Point lb{gf.GridX(seg.b.x) - cx0, gf.GridY(seg.b.y) - cy0};
    auto emit_row = [&](int c0, int c1, int y) {
      for (int c = c0; c <= c1; ++c) {
        uint8_t& cell = cells[static_cast<size_t>(y) * vw + c];
        if (cell == kPartial) continue;
        if (geom::SegmentIntersectsBox(seg, gf.CellBox(cx0 + c, cy0 + y))) {
          cell = kPartial;
        }
      }
      return false;  // no early exit: every candidate row matters
    };
    glsim::RasterizeLineAARowSpans(la, lb, kEnumWidth, vw, vh, emit_row);
  }

  const bool has_interior = polygon.size() >= 3 && polygon.Area() > 0.0;
  const bool any_full =
      has_interior && MarkFullRuns(polygon, gf, cx0, cy0, vw, vh, scratch);

  const HilbertRunEmitter emitter(scratch.counts, grid_bits, cx0, cy0, vw,
                                  vh);
  BuildCounts(cells, vw, vh, kPartial, scratch.counts);
  emitter.Emit(out.all);
  if (any_full) {
    BuildCounts(cells, vw, vh, kFull, scratch.counts);
    emitter.Emit(out.full);
  }
  const auto bytes = static_cast<int64_t>(
      (out.all.size() + out.full.size()) * sizeof(CellInterval));
  if (bytes > max_bytes) {
    out.all.clear();
    out.full.clear();
    return out;
  }
  out.approximated = true;
  return out;
}

bool IntervalsOverlap(const std::vector<CellInterval>& a,
                      const std::vector<CellInterval>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hi <= b[j].lo) {
      ++i;
    } else if (b[j].hi <= a[i].lo) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

uint32_t HilbertIndex(int bits, uint32_t x, uint32_t y) {
  uint32_t d = 0;
  for (uint32_t s = 1u << (bits - 1); s > 0; s >>= 1) {
    const uint32_t rx = (x & s) != 0 ? 1 : 0;
    const uint32_t ry = (y & s) != 0 ? 1 : 0;
    d += s * s * ((3 * rx) ^ ry);
    if (ry == 0) {  // rotate the quadrant
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

IntervalVerdict DecidePair(const ObjectIntervals& a,
                           const ObjectIntervals& b) {
  if (!a.approximated || !b.approximated) return IntervalVerdict::kInconclusive;
  if (!IntervalsOverlap(a.all, b.all)) return IntervalVerdict::kMiss;
  if (IntervalsOverlap(a.full, b.all) || IntervalsOverlap(a.all, b.full)) {
    return IntervalVerdict::kHit;
  }
  return IntervalVerdict::kInconclusive;
}

ObjectIntervals IntervalApprox::ApproximateObject(
    const geom::Polygon& polygon) const {
  if (frame_.IsEmpty() || frame_.Width() <= 0.0 || frame_.Height() <= 0.0) {
    return {};
  }
  // No byte budget for ad-hoc query objects: there is exactly one per
  // query, and the scratch cap inside BuildObjectIntervals still bounds it.
  BuildScratch scratch;
  return BuildObjectIntervals(polygon, MakeGridFrame(frame_, grid_bits_),
                              grid_bits_, std::numeric_limits<int64_t>::max(),
                              scratch);
}

Result<IntervalApprox> BuildIntervalApprox(
    std::span<const geom::Polygon> polygons, const geom::Box& frame,
    const IntervalApproxConfig& config) {
  if (config.grid_bits < 1 || config.grid_bits > kMaxGridBits) {
    return Status::InvalidArgument("interval grid_bits must be in [1, 12]");
  }
  if (config.memory_budget_bytes < 0) {
    return Status::InvalidArgument("interval memory budget must be >= 0");
  }
  Stopwatch watch;
  obs::ManualSpan span;
  span.Start(config.trace, "interval-build", "filter");
  IntervalApprox approx;
  approx.grid_bits_ = config.grid_bits;
  approx.frame_ = frame;
  approx.objects_.resize(polygons.size());
  approx.stats_.objects = static_cast<int64_t>(polygons.size());
  const bool frame_ok =
      !frame.IsEmpty() && frame.Width() > 0.0 && frame.Height() > 0.0;
  if (frame_ok && !polygons.empty()) {
    const GridFrame gf = MakeGridFrame(frame, config.grid_bits);
    const int64_t share = std::max<int64_t>(
        256,
        config.memory_budget_bytes / static_cast<int64_t>(polygons.size()));
    ThreadPool pool(config.num_threads);
    std::vector<ObjectIntervals>* objects = &approx.objects_;
    std::vector<BuildScratch> scratch(
        static_cast<size_t>(pool.num_threads()));
    const Status built = pool.ParallelFor(
        static_cast<int64_t>(polygons.size()), /*grain=*/16,
        [&polygons, &gf, &config, &scratch, share, objects](
            int64_t begin, int64_t end, int worker) {
          for (int64_t id = begin; id < end; ++id) {
            if (config.faults != nullptr &&
                !config.faults->Check(FaultSite::kDatasetLoad).ok()) {
              continue;  // degrade to unapproximated, never fail the build
            }
            (*objects)[static_cast<size_t>(id)] = BuildObjectIntervals(
                polygons[static_cast<size_t>(id)], gf, config.grid_bits,
                share, scratch[static_cast<size_t>(worker)]);
          }
        });
    if (!built.ok()) {
      span.End();
      return built;
    }
  }
  for (const ObjectIntervals& obj : approx.objects_) {
    if (!obj.approximated) ++approx.stats_.unapproximated;
    approx.stats_.interval_count +=
        static_cast<int64_t>(obj.all.size() + obj.full.size());
  }
  approx.stats_.build_ms = watch.ElapsedMillis();
  span.End();
  if (config.metrics != nullptr) {
    config.metrics->GetGauge(obs::kIntervalBuildMs).Add(approx.stats_.build_ms);
    config.metrics->GetCounter(obs::kIntervalObjects)
        .Add(approx.stats_.objects);
    config.metrics->GetCounter(obs::kIntervalUnapproximated)
        .Add(approx.stats_.unapproximated);
    config.metrics->GetCounter(obs::kIntervalIntervals)
        .Add(approx.stats_.interval_count);
  }
  return approx;
}

Result<std::shared_ptr<const IntervalApprox>> IntervalApproxCache::Acquire(
    std::span<const geom::Polygon> polygons, const geom::Box& frame,
    uint64_t epoch, const IntervalApproxConfig& config) const {
  MutexLock lock(&mu_);
  const bool fresh = cached_ != nullptr && grid_bits_ == config.grid_bits &&
                     budget_ == config.memory_budget_bytes &&
                     epoch_ == epoch && count_ == polygons.size() &&
                     frame_ == frame;
  if (!fresh) {
    HASJ_ASSIGN_OR_RETURN(IntervalApprox built,
                          BuildIntervalApprox(polygons, frame, config));
    cached_ = std::make_shared<const IntervalApprox>(std::move(built));
    grid_bits_ = config.grid_bits;
    budget_ = config.memory_budget_bytes;
    epoch_ = epoch;
    count_ = polygons.size();
    frame_ = frame;
  }
  return cached_;
}

}  // namespace hasj::filter
