#ifndef HASJ_CORE_JOIN_H_
#define HASJ_CORE_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/hw_config.h"
#include "core/query_stats.h"
#include "data/dataset.h"
#include "filter/interval_approx.h"
#include "data/dataset_index.h"
#include "index/rtree.h"

namespace hasj::core {

struct JoinOptions {
  bool use_hw = false;
  HwConfig hw;
  // Worker threads for the geometry-comparison stage; 1 = serial, 0 =
  // hardware concurrency. Results and counter totals are identical at
  // every thread count (core/refinement_executor.h).
  int num_threads = 1;
};

struct JoinResult {
  std::vector<std::pair<int64_t, int64_t>> pairs;  // intersecting (a, b) ids
  StageCosts costs;
  StageCounts counts;
  // Interval-filter decisions (zero unless hw.use_intervals): TRUE-HIT
  // pairs accepted without refinement, TRUE-MISS pairs dropped, and the
  // INCONCLUSIVE remainder routed to the geometry comparison.
  int64_t interval_hits = 0;
  int64_t interval_misses = 0;
  int64_t interval_undecided = 0;
  HwCounters hw_counters;
  // Ok for a complete run; on kDeadlineExceeded / kInternal `pairs` is an
  // exact prefix of the complete result and counts.truncated is set.
  Status status;
};

// Intersection join A ⋈ B: all object pairs with intersecting geometries.
// MBR filtering is a synchronized R-tree traversal; geometry comparison is
// the software or hardware-assisted intersection test (Figures 12-13),
// run by the shared stage skeleton (core/query_stages.h).
//
// Run() is const and internally synchronized (the interval caches build
// under their own locks; per-worker testers), so concurrent Run() calls
// are safe.
class IntersectionJoin {
 public:
  // Keeps references to both datasets; builds both R-trees eagerly. Each
  // Run() pins both datasets' content and trees at entry, so an in-place
  // reload mid-query cannot mix epochs (DESIGN.md §16).
  IntersectionJoin(const data::Dataset& a, const data::Dataset& b);

  [[nodiscard]] JoinResult Run(const JoinOptions& options = {}) const;

 private:
  // Epoch-pinned content + R-tree per side, acquired once per Run().
  data::DatasetIndex index_a_;
  data::DatasetIndex index_b_;
  // Per-side raster-interval approximations (hw.use_intervals), built over
  // the union frame of both datasets so cell indices are comparable; keyed
  // on each dataset's epoch so in-place reloads rebuild them.
  filter::IntervalApproxCache interval_cache_a_;
  filter::IntervalApproxCache interval_cache_b_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_JOIN_H_
