#ifndef HASJ_CORE_SNAPSHOT_QUERY_H_
#define HASJ_CORE_SNAPSHOT_QUERY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/polygon_distance.h"
#include "common/status.h"
#include "core/hw_config.h"
#include "data/versioned_dataset.h"
#include "filter/slot_interval_grid.h"
#include "geom/polygon.h"

namespace hasj::core {

// Overload-degradation ladder for the serving layer (DESIGN.md §16).
// Levels are cumulative — each one keeps every cheaper level's concession —
// and strictly performance-only: verdicts are exact at every level, because
// each step swaps one exact execution strategy for another
// (coarser-but-still-conservative raster window, interval pre-decision with
// exact software refinement of inconclusive pairs). The values name the
// levels in metrics and digest rows (server.degraded_l2, "L3"), so they
// stay fixed; there is no level 1.
enum class DegradeLevel {
  kNone = 0,
  // L2: lower the hardware raster resolution — cheaper per-pair hardware
  // step; the conservative filter simply decides fewer pairs. Under the
  // default routing (HwRouting::kByCost) no intersection pair takes the
  // hardware step, so this changes only the distance forms; selections
  // and joins run at L2 exactly as at L0.
  kLowRes = 2,
  // L3: also bypass the hardware testers entirely — interval pre-decision
  // (when a grid is attached) plus exact software refinement.
  kIntervalsOnly = 3,
};

// The hardware config a query actually runs with at `level`. Split out so
// tests can assert the ladder deterministically.
HwConfig DegradedHwConfig(const HwConfig& hw, bool use_hw, DegradeLevel level);

struct SnapshotQueryOptions {
  // Geometry comparison with the hardware-assisted testers (subject to the
  // degradation ladder).
  bool use_hw = true;
  HwConfig hw;
  algo::DistanceOptions sw_distance;
  DegradeLevel degrade = DegradeLevel::kNone;
  // The store's slot interval grid, consulted at kIntervalsOnly only (may
  // be null: refinement is pure software then). Joins read both sides
  // from it.
  const filter::SlotIntervalGrid* intervals = nullptr;
};

struct SnapshotQueryResult {
  std::vector<int64_t> ids;                          // selection forms
  std::vector<std::pair<int64_t, int64_t>> pairs;    // join forms
  int64_t candidates = 0;
  int64_t interval_hits = 0;
  int64_t interval_misses = 0;
  HwCounters hw_counters;
  // Ok for a complete run; kDeadlineExceeded / kCancelled results are
  // partial and must not be served as exact.
  Status status;
};

// Snapshot-pinned query forms for the mutable store: each runs entirely
// against the pinned index version + write-once slots it is handed, so
// concurrent Insert/Delete traffic cannot change what a running query sees.
// They are wrappers over the shared stage skeleton (core/query_stages.h),
// serial, with the degradation ladder applied to the tester config. Joins
// are self-joins of the one snapshot. Results use candidate order (filter
// accepts first, refined accepts after); callers comparing against an
// oracle sort both sides.
SnapshotQueryResult SnapshotSelection(const data::VersionedDataset::Snapshot& snap,
                                      const geom::Polygon& query,
                                      const SnapshotQueryOptions& options = {});
SnapshotQueryResult SnapshotJoin(const data::VersionedDataset::Snapshot& snap,
                                 const SnapshotQueryOptions& options = {});
SnapshotQueryResult SnapshotDistanceSelection(
    const data::VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d, const SnapshotQueryOptions& options = {});
SnapshotQueryResult SnapshotDistanceJoin(
    const data::VersionedDataset::Snapshot& snap, double d,
    const SnapshotQueryOptions& options = {});

// Serial oracles: brute-force scans over the snapshot's live ids with the
// exact software predicates, no index, no filters, no hardware. Ground
// truth for the chaos suite and the server's sampled self-verification.
// Sorted ascending (lexicographically for pairs).
std::vector<int64_t> OracleSelection(const data::VersionedDataset::Snapshot& snap,
                                     const geom::Polygon& query);
std::vector<std::pair<int64_t, int64_t>> OracleJoin(
    const data::VersionedDataset::Snapshot& snap);
std::vector<int64_t> OracleDistanceSelection(
    const data::VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d);
std::vector<std::pair<int64_t, int64_t>> OracleDistanceJoin(
    const data::VersionedDataset::Snapshot& snap, double d);

}  // namespace hasj::core

#endif  // HASJ_CORE_SNAPSHOT_QUERY_H_
