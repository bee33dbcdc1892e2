#ifndef HASJ_FILTER_INTERVAL_APPROX_H_
#define HASJ_FILTER_INTERVAL_APPROX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/fault.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hasj::filter {

// Dataset-level raster-interval object approximation (DESIGN.md §12).
//
// Each object is rasterized once, at load time, onto a global
// 2^grid_bits × 2^grid_bits grid covering the dataset frame. Cells are
// classified PARTIAL (the cell's closed box touches the polygon boundary)
// or FULL (the cell's closed box lies entirely inside the polygon), and
// stored as two sorted lists of half-open Hilbert-index intervals: `all`
// (FULL ∪ PARTIAL) and `full`. The lists are the maximal runs of
// consecutive HilbertIndex values over the marked cells.
//
// A pair of approximated objects can then often be *decided* without exact
// refinement:
//   - disjoint `all` lists  ⇒ TRUE MISS (no shared cell, no shared point);
//   - `full`(a) ∩ `all`(b) or `all`(a) ∩ `full`(b) ⇒ TRUE HIT (a FULL cell
//     of one object meets a cell the other object genuinely occupies);
//   - anything else ⇒ INCONCLUSIVE, routed to the hardware testers.
//
// Conservativeness depends on *both* directions of the cell classification
// being honest, not merely superset-conservative:
//   - MISS needs `all` to cover every cell the object touches (no misses);
//   - HIT needs every marked cell to be genuinely occupied (no spurious
//     marks — a snap-tolerance cell that does not actually touch the
//     boundary would manufacture fake intersections).
// The builder therefore uses the glsim row-span rasterizer (which is a
// guaranteed superset, DESIGN.md §6) only to *enumerate candidate* cells,
// and confirms each candidate with the exact segment/box predicate before
// marking it PARTIAL. Each row's runs of non-PARTIAL cells get
// algo::LocatePoint's exact verdict at their first cell centre, computed
// as the crossing parity over only the edges straddling that row. The
// lists are read off by a Hilbert-order descent over aligned blocks, one
// run per fully marked block, with no point location over the whole ring
// and no sort of the marked cells. See BuildObjectIntervals in
// interval_approx.cc.

// Hilbert curve index of cell (x, y) on a 2^bits × 2^bits grid. Classic
// iterative xy→d mapping; bijective over the grid, so sorted interval
// lists over the index are a lossless cell-set encoding with good spatial
// locality (neighbouring cells tend to fall in the same interval).
uint32_t HilbertIndex(int bits, uint32_t x, uint32_t y);

// Half-open run [lo, hi) of Hilbert cell indices.
struct CellInterval {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

// One object's interval approximation. `approximated == false` means the
// object opted out (degenerate frame, memory budget, scratch cap, or an
// injected dataset-load fault) and every pair involving it is
// INCONCLUSIVE — never wrong, just undecided.
struct ObjectIntervals {
  std::vector<CellInterval> all;   // FULL ∪ PARTIAL cells, sorted, disjoint
  std::vector<CellInterval> full;  // FULL cells only, sorted, disjoint
  bool approximated = false;
};

enum class IntervalVerdict {
  kHit,           // definitely intersect: skip refinement, emit the pair
  kMiss,          // definitely disjoint: drop the pair
  kInconclusive,  // intervals cannot decide: refine as usual
};

// Joint interval decision for a candidate pair. O(|a| + |b|) two-pointer
// merges over the sorted lists. Either side unapproximated ⇒ kInconclusive.
IntervalVerdict DecidePair(const ObjectIntervals& a, const ObjectIntervals& b);

struct IntervalApproxConfig {
  // Grid is 2^grid_bits per side; capped at 12 so a cell index fits a
  // uint32 and a full-height object window stays within the glsim
  // rasterizer's RowSpans::kMaxRows scratch rows.
  int grid_bits = 10;
  // Whole-dataset budget; each object gets an equal byte share and objects
  // whose interval lists exceed it stay unapproximated.
  int64_t memory_budget_bytes = 64 << 20;
  // Degree of build parallelism (ThreadPool::ResolveThreadCount semantics:
  // <= 0 means hardware concurrency, 1 means inline).
  int num_threads = 1;
  // Optional instrumentation; all may be null. Faults are checked once per
  // object at FaultSite::kDatasetLoad; a faulted object degrades to
  // unapproximated instead of failing the build.
  FaultInjector* faults = nullptr;
  obs::TraceSession* trace = nullptr;
  obs::Registry* metrics = nullptr;
};

struct IntervalBuildStats {
  int64_t objects = 0;
  int64_t unapproximated = 0;  // degenerate frame / budget / fault opt-outs
  int64_t interval_count = 0;  // total CellInterval records stored
  double build_ms = 0.0;
};

// Immutable per-dataset approximation: one ObjectIntervals per input
// polygon, in input order, plus the frame/grid needed to approximate query
// objects against the same cells.
class IntervalApprox {
 public:
  int grid_bits() const { return grid_bits_; }
  const geom::Box& frame() const { return frame_; }
  size_t size() const { return objects_.size(); }
  const ObjectIntervals& object(size_t id) const { return objects_[id]; }
  const IntervalBuildStats& stats() const { return stats_; }

  // Approximates an ad-hoc (query) object against this grid. The window is
  // clipped to the frame, which is sound: every dataset object lies inside
  // the frame, so any intersection point falls in an in-frame cell that
  // both sides cover.
  ObjectIntervals ApproximateObject(const geom::Polygon& polygon) const;

 private:
  friend Result<IntervalApprox> BuildIntervalApprox(
      std::span<const geom::Polygon> polygons, const geom::Box& frame,
      const IntervalApproxConfig& config);

  int grid_bits_ = 0;
  geom::Box frame_;
  std::vector<ObjectIntervals> objects_;
  IntervalBuildStats stats_;
};

// Builds the approximation for a dataset snapshot. Parallelized through the
// shared ThreadPool; per-object failures degrade to unapproximated, only
// infrastructure errors (worker exceptions, invalid config) surface as a
// non-OK status.
[[nodiscard]] Result<IntervalApprox> BuildIntervalApprox(
    std::span<const geom::Polygon> polygons, const geom::Box& frame,
    const IntervalApproxConfig& config);

// Per-pipeline build-once cache: the first query with intervals enabled
// builds the approximation, later queries share the snapshot. The key includes the dataset epoch (data::Dataset::epoch), so
// an in-place reload invalidates the snapshot instead of serving intervals
// for polygons that no longer exist.
class IntervalApproxCache {
 public:
  // Takes mu_ itself — and holds it across a cache-miss build, so
  // concurrent queries at the same key build the approximation once.
  [[nodiscard]] Result<std::shared_ptr<const IntervalApprox>> Acquire(
      std::span<const geom::Polygon> polygons, const geom::Box& frame,
      uint64_t epoch, const IntervalApproxConfig& config) const
      HASJ_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // The cached snapshot plus the key it was built under (grid, budget,
  // dataset epoch, object count, frame): mu_ guards the swap-on-key-change;
  // the pointed-to IntervalApprox is immutable once published.
  mutable std::shared_ptr<const IntervalApprox> cached_ HASJ_GUARDED_BY(mu_);
  mutable int grid_bits_ HASJ_GUARDED_BY(mu_) = -1;
  mutable int64_t budget_ HASJ_GUARDED_BY(mu_) = -1;
  mutable uint64_t epoch_ HASJ_GUARDED_BY(mu_) = 0;
  mutable size_t count_ HASJ_GUARDED_BY(mu_) = 0;
  mutable geom::Box frame_ HASJ_GUARDED_BY(mu_);
};

}  // namespace hasj::filter

#endif  // HASJ_FILTER_INTERVAL_APPROX_H_
