#ifndef HASJ_CORE_SELECTION_H_
#define HASJ_CORE_SELECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/hw_config.h"
#include "core/query_stats.h"
#include "data/dataset.h"
#include "data/dataset_index.h"
#include "filter/interval_approx.h"
#include "geom/polygon.h"
#include "index/rtree.h"

namespace hasj::core {

struct SelectionOptions {
  // Interior-filter tiling level l (grid 2^l x 2^l); negative disables the
  // intermediate filter (Figure 10 sweeps 0..6).
  int interior_tiling_level = -1;
  // Geometry comparison with the hardware-assisted test (Algorithm 3.1)
  // instead of the software-only test.
  bool use_hw = false;
  HwConfig hw;
  // Worker threads for the geometry-comparison stage: each worker runs its
  // own tester over a chunk of the candidate list
  // (core/refinement_executor.h). 1 = serial (the paper's single
  // off-screen window), 0 = hardware concurrency. Results and counter
  // totals are identical at every thread count.
  int num_threads = 1;
};

struct SelectionResult {
  std::vector<int64_t> ids;  // objects intersecting the query polygon
  StageCosts costs;
  StageCounts counts;
  // Interval-filter decisions (zero unless hw.use_intervals): TRUE-HIT
  // pairs accepted without refinement, TRUE-MISS pairs dropped, and the
  // INCONCLUSIVE remainder routed to the geometry comparison.
  int64_t interval_hits = 0;
  int64_t interval_misses = 0;
  int64_t interval_undecided = 0;
  HwCounters hw_counters;        // zero unless use_hw
  // Ok for a complete run. kDeadlineExceeded (budget/cancel) or kInternal
  // (a refinement worker failed): `ids` is then an exact prefix of the
  // complete result and counts.truncated is set.
  Status status;
};

// Intersection selection: all dataset objects intersecting a query polygon,
// processed as MBR filtering (R-tree) -> intermediate filters (interior
// and/or intervals) -> geometry comparison, the paper's Figure 8 pipeline,
// run by the shared stage skeleton (core/query_stages.h).
//
// Run() is const and internally synchronized (the interval cache builds
// under its own lock; per-worker testers), so concurrent Run() calls are
// safe.
class IntersectionSelection {
 public:
  // Keeps a reference to the dataset; builds the R-tree eagerly. Each
  // Run() pins the dataset content and tree at entry, so a reload-in-place
  // mid-query cannot mix epochs (DESIGN.md §16).
  explicit IntersectionSelection(const data::Dataset& dataset);

  [[nodiscard]] SelectionResult Run(const geom::Polygon& query,
                      const SelectionOptions& options = {}) const;

 private:
  // Epoch-pinned content + R-tree, acquired once per Run().
  data::DatasetIndex index_;
  // Dataset-level raster-interval approximation (hw.use_intervals), built
  // on first use and shared across queries; keyed on the dataset epoch so
  // an in-place reload rebuilds it.
  filter::IntervalApproxCache interval_cache_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_SELECTION_H_
