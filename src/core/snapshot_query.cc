#include "core/snapshot_query.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "algo/polygon_intersect.h"
#include "core/query_stages.h"
#include "geom/box.h"
#include "index/dynamic_rtree.h"

namespace hasj::core {

namespace {

using data::VersionedDataset;

// The stage setup of a snapshot query at its ladder level: serial, and
// interval pre-decision only at the last rung, where the hardware testers
// are off.
StageSetup SnapshotSetup(const char* kind, const HwConfig& hw,
                         const SnapshotQueryOptions& options,
                         bool object_filters) {
  return {.kind = kind,
          .hw = hw,
          .use_hw = hw.enable_hw,
          .use_intervals = options.degrade >= DegradeLevel::kIntervalsOnly &&
                           options.intervals != nullptr,
          .zero_object_filter = object_filters,
          .one_object_filter = object_filters};
}

template <typename Item>
SnapshotQueryResult ToSnapshotResult(StageOutcome<Item> out) {
  SnapshotQueryResult result;
  if constexpr (std::is_same_v<Item, int64_t>) {
    result.ids = std::move(out.accepted);
  } else {
    result.pairs = std::move(out.accepted);
  }
  result.candidates = out.counts.candidates;
  result.interval_hits = out.tallies.interval_hits;
  result.interval_misses = out.tallies.interval_misses;
  result.hw_counters = out.hw_counters;
  result.status = std::move(out.status);
  return result;
}

}  // namespace

HwConfig DegradedHwConfig(const HwConfig& hw, bool use_hw,
                          DegradeLevel level) {
  HwConfig out = hw;
  out.enable_hw = use_hw;
  if (level >= DegradeLevel::kLowRes) {
    out.resolution = std::min(out.resolution, 4);
  }
  if (level >= DegradeLevel::kIntervalsOnly) out.enable_hw = false;
  return out;
}

SnapshotQueryResult SnapshotSelection(const VersionedDataset::Snapshot& snap,
                                      const geom::Polygon& query,
                                      const SnapshotQueryOptions& options) {
  const HwConfig hw =
      DegradedHwConfig(options.hw, options.use_hw, options.degrade);
  return ToSnapshotResult(RunStages(
      SnapshotSetup("snapshot_selection", hw, options, false),
      SelectionShape{snap, query, options.intervals}, IntersectsPredicate{},
      [&] { return snap.QueryIntersects(query.Bounds()); }));
}

SnapshotQueryResult SnapshotJoin(const VersionedDataset::Snapshot& snap,
                                 const SnapshotQueryOptions& options) {
  const HwConfig hw =
      DegradedHwConfig(options.hw, options.use_hw, options.degrade);
  return ToSnapshotResult(RunStages(
      SnapshotSetup("snapshot_join", hw, options, false),
      JoinShape{snap, snap, options.intervals, options.intervals},
      IntersectsPredicate{},
      [&] { return index::JoinIntersects(snap.index(), snap.index()); }));
}

SnapshotQueryResult SnapshotDistanceSelection(
    const VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d, const SnapshotQueryOptions& options) {
  const HwConfig hw =
      DegradedHwConfig(options.hw, options.use_hw, options.degrade);
  return ToSnapshotResult(RunStages(
      SnapshotSetup("snapshot_distance_selection", hw, options, true),
      SelectionShape{snap, query, options.intervals},
      DistancePredicate{d, options.sw_distance},
      [&] { return snap.QueryWithinDistance(query.Bounds(), d); }));
}

SnapshotQueryResult SnapshotDistanceJoin(const VersionedDataset::Snapshot& snap,
                                         double d,
                                         const SnapshotQueryOptions& options) {
  const HwConfig hw =
      DegradedHwConfig(options.hw, options.use_hw, options.degrade);
  return ToSnapshotResult(RunStages(
      SnapshotSetup("snapshot_distance_join", hw, options, true),
      JoinShape{snap, snap, options.intervals, options.intervals},
      DistancePredicate{d, options.sw_distance}, [&] {
        return index::JoinWithinDistance(snap.index(), snap.index(), d);
      }));
}

std::vector<int64_t> OracleSelection(const VersionedDataset::Snapshot& snap,
                                     const geom::Polygon& query) {
  std::vector<int64_t> out;
  const geom::Box window = query.Bounds();
  for (const int64_t id : snap.LiveIds()) {
    // The MBR pre-check is sound (disjoint boxes ⇒ disjoint polygons) and
    // keeps the oracle usable at chaos-suite query counts.
    if (!snap.mbr(id).Intersects(window)) continue;
    if (algo::PolygonsIntersect(snap.polygon(id), query)) out.push_back(id);
  }
  return out;
}

std::vector<std::pair<int64_t, int64_t>> OracleJoin(
    const VersionedDataset::Snapshot& snap) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const std::vector<int64_t> ids = snap.LiveIds();
  for (const int64_t ida : ids) {
    const geom::Box& box_a = snap.mbr(ida);
    for (const int64_t idb : ids) {
      if (!box_a.Intersects(snap.mbr(idb))) continue;
      if (algo::PolygonsIntersect(snap.polygon(ida), snap.polygon(idb))) {
        out.emplace_back(ida, idb);
      }
    }
  }
  return out;
}

std::vector<int64_t> OracleDistanceSelection(
    const VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d) {
  std::vector<int64_t> out;
  const geom::Box window = query.Bounds();
  for (const int64_t id : snap.LiveIds()) {
    if (geom::MinDistance(snap.mbr(id), window) > d) continue;
    if (algo::WithinDistance(snap.polygon(id), query, d)) out.push_back(id);
  }
  return out;
}

std::vector<std::pair<int64_t, int64_t>> OracleDistanceJoin(
    const VersionedDataset::Snapshot& snap, double d) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const std::vector<int64_t> ids = snap.LiveIds();
  for (const int64_t ida : ids) {
    const geom::Box& box_a = snap.mbr(ida);
    for (const int64_t idb : ids) {
      if (geom::MinDistance(box_a, snap.mbr(idb)) > d) continue;
      if (algo::WithinDistance(snap.polygon(ida), snap.polygon(idb), d)) {
        out.emplace_back(ida, idb);
      }
    }
  }
  return out;
}

}  // namespace hasj::core
