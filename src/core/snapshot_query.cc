#include "core/snapshot_query.h"

#include <algorithm>

#include "algo/polygon_intersect.h"
#include "common/cancel.h"
#include "core/batch_tester.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "core/paranoid.h"
#include "core/refinement_executor.h"
#include "filter/interval_approx.h"
#include "filter/object_filters.h"
#include "geom/box.h"
#include "index/dynamic_rtree.h"

namespace hasj::core {

namespace {

using data::VersionedDataset;

// The interval grid in effect for a query: the ladder consults intervals
// only at its last rung, where the hardware testers are off.
const filter::SlotIntervalGrid* EffectiveGrid(
    const filter::SlotIntervalGrid* grid, DegradeLevel level) {
  return level >= DegradeLevel::kIntervalsOnly ? grid : nullptr;
}

// Shared refinement tail: serial executor wired to the query's deadline
// and fault injector (the server parallelizes across queries, not inside
// one).
void ConfigureExecutor(RefinementExecutor* executor, const HwConfig& hw,
                       const QueryDeadline* deadline) {
  executor->SetObservability(hw.trace, hw.metrics);
  executor->SetDeadline(deadline);
  executor->SetFaults(hw.faults);
}

}  // namespace

HwConfig DegradedHwConfig(const HwConfig& hw, bool use_hw,
                          DegradeLevel level) {
  HwConfig out = hw;
  out.enable_hw = use_hw;
  if (level >= DegradeLevel::kNoBatch) out.use_batching = false;
  if (level >= DegradeLevel::kLowRes) {
    out.resolution = std::min(out.resolution, 4);
  }
  if (level >= DegradeLevel::kIntervalsOnly) out.enable_hw = false;
  return out;
}

SnapshotQueryResult SnapshotSelection(const VersionedDataset::Snapshot& snap,
                                      const geom::Polygon& query,
                                      const SnapshotQueryOptions& options) {
  SnapshotQueryResult result;
  const HwConfig hw = DegradedHwConfig(options.hw, options.use_hw,
                                       options.degrade);
  const QueryDeadline deadline =
      QueryDeadline::Start(hw.deadline_ms, hw.cancel);

  const std::vector<int64_t> candidates = snap.QueryIntersects(query.Bounds());
  result.candidates = static_cast<int64_t>(candidates.size());

  const filter::SlotIntervalGrid* grid =
      EffectiveGrid(options.intervals, options.degrade);
  filter::ObjectIntervals query_intervals;
  if (grid != nullptr) query_intervals = grid->Approximate(query);

  const bool guarded = deadline.active();
  std::vector<int64_t> undecided;
  undecided.reserve(candidates.size());
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (guarded && (ci % 64) == 0 && deadline.Expired()) {
      result.status = deadline.ToStatus();
      return result;
    }
    const int64_t id = candidates[ci];
    if (grid != nullptr) {
      switch (filter::DecidePair(query_intervals,
                                 grid->Get(id, snap.polygon(id)))) {
        case filter::IntervalVerdict::kHit:
          HASJ_PARANOID_ONLY(
              paranoid::CheckIntervalAccept(snap.polygon(id), query, hw));
          result.ids.push_back(id);
          ++result.interval_hits;
          continue;
        case filter::IntervalVerdict::kMiss:
          HASJ_PARANOID_ONLY(
              paranoid::CheckIntervalReject(snap.polygon(id), query, hw));
          ++result.interval_misses;
          continue;
        case filter::IntervalVerdict::kInconclusive:
          break;
      }
    }
    undecided.push_back(id);
  }

  RefinementExecutor executor(1);
  ConfigureExecutor(&executor, hw, &deadline);
  RefinementOutcome<int64_t> refined;
  if (hw.use_batching && hw.enable_hw && hw.backend == HwBackend::kBitmask) {
    refined = executor.RefineBatches(
        undecided, [&] { return BatchHardwareTester(hw); },
        [&](int64_t id) { return PolygonPair{&snap.polygon(id), &query}; },
        [](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
           uint8_t* verdicts) { tester.TestIntersectionBatch(pairs, verdicts); });
  } else {
    refined = executor.Refine(
        undecided,
        [&] { return HwIntersectionTester(hw); },
        [&](HwIntersectionTester& tester, int64_t id) {
          return tester.Test(snap.polygon(id), query);
        });
  }
  result.ids.insert(result.ids.end(), refined.accepted.begin(),
                    refined.accepted.end());
  result.hw_counters = refined.counters;
  result.status = refined.status;
  return result;
}

SnapshotQueryResult SnapshotJoin(const VersionedDataset::Snapshot& a,
                                 const VersionedDataset::Snapshot& b,
                                 const SnapshotQueryOptions& options) {
  SnapshotQueryResult result;
  const HwConfig hw = DegradedHwConfig(options.hw, options.use_hw,
                                       options.degrade);
  const QueryDeadline deadline =
      QueryDeadline::Start(hw.deadline_ms, hw.cancel);

  const std::vector<std::pair<int64_t, int64_t>> candidates =
      index::JoinIntersects(a.index(), b.index());
  result.candidates = static_cast<int64_t>(candidates.size());

  const filter::SlotIntervalGrid* grid_a =
      EffectiveGrid(options.intervals, options.degrade);
  const filter::SlotIntervalGrid* grid_b =
      EffectiveGrid(options.intervals_b, options.degrade);

  const bool guarded = deadline.active();
  std::vector<std::pair<int64_t, int64_t>> undecided;
  undecided.reserve(candidates.size());
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (guarded && (ci % 64) == 0 && deadline.Expired()) {
      result.status = deadline.ToStatus();
      return result;
    }
    const auto& [ida, idb] = candidates[ci];
    if (grid_a != nullptr && grid_b != nullptr) {
      switch (filter::DecidePair(grid_a->Get(ida, a.polygon(ida)),
                                 grid_b->Get(idb, b.polygon(idb)))) {
        case filter::IntervalVerdict::kHit:
          HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(
              a.polygon(ida), b.polygon(idb), hw));
          result.pairs.emplace_back(ida, idb);
          ++result.interval_hits;
          continue;
        case filter::IntervalVerdict::kMiss:
          HASJ_PARANOID_ONLY(paranoid::CheckIntervalReject(
              a.polygon(ida), b.polygon(idb), hw));
          ++result.interval_misses;
          continue;
        case filter::IntervalVerdict::kInconclusive:
          break;
      }
    }
    undecided.emplace_back(ida, idb);
  }

  RefinementExecutor executor(1);
  ConfigureExecutor(&executor, hw, &deadline);
  RefinementOutcome<std::pair<int64_t, int64_t>> refined;
  if (hw.use_batching && hw.enable_hw && hw.backend == HwBackend::kBitmask) {
    refined = executor.RefineBatches(
        undecided, [&] { return BatchHardwareTester(hw); },
        [&](const std::pair<int64_t, int64_t>& c) {
          return PolygonPair{&a.polygon(c.first), &b.polygon(c.second)};
        },
        [](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
           uint8_t* verdicts) { tester.TestIntersectionBatch(pairs, verdicts); });
  } else {
    refined = executor.Refine(
        undecided,
        [&] { return HwIntersectionTester(hw); },
        [&](HwIntersectionTester& tester, const std::pair<int64_t, int64_t>& c) {
          return tester.Test(a.polygon(c.first), b.polygon(c.second));
        });
  }
  result.pairs.insert(result.pairs.end(), refined.accepted.begin(),
                      refined.accepted.end());
  result.hw_counters = refined.counters;
  result.status = refined.status;
  return result;
}

SnapshotQueryResult SnapshotDistanceSelection(
    const VersionedDataset::Snapshot& snap, const geom::Polygon& query,
    double d, const SnapshotQueryOptions& options) {
  SnapshotQueryResult result;
  const HwConfig hw = DegradedHwConfig(options.hw, options.use_hw,
                                       options.degrade);
  const QueryDeadline deadline =
      QueryDeadline::Start(hw.deadline_ms, hw.cancel);

  const std::vector<int64_t> candidates =
      snap.QueryWithinDistance(query.Bounds(), d);
  result.candidates = static_cast<int64_t>(candidates.size());

  // Accept-only interval use (a TRUE-HIT intersection implies distance
  // 0 <= d; misses prove nothing about the gap).
  const filter::SlotIntervalGrid* grid =
      d >= 0.0 ? EffectiveGrid(options.intervals, options.degrade) : nullptr;
  filter::ObjectIntervals query_intervals;
  if (grid != nullptr) query_intervals = grid->Approximate(query);

  const bool guarded = deadline.active();
  std::vector<int64_t> undecided;
  undecided.reserve(candidates.size());
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (guarded && (ci % 64) == 0 && deadline.Expired()) {
      result.status = deadline.ToStatus();
      return result;
    }
    const int64_t id = candidates[ci];
    const geom::Box& mbr = snap.mbr(id);
    if (filter::ZeroObjectUpperBound(mbr, query.Bounds()) <= d) {
      result.ids.push_back(id);
      continue;
    }
    if (filter::OneObjectUpperBound(query, mbr) <= d) {
      result.ids.push_back(id);
      continue;
    }
    if (grid != nullptr &&
        filter::DecidePair(query_intervals, grid->Get(id, snap.polygon(id))) ==
            filter::IntervalVerdict::kHit) {
      HASJ_PARANOID_ONLY(
          paranoid::CheckIntervalAccept(snap.polygon(id), query, hw));
      result.ids.push_back(id);
      ++result.interval_hits;
      continue;
    }
    undecided.push_back(id);
  }

  RefinementExecutor executor(1);
  ConfigureExecutor(&executor, hw, &deadline);
  RefinementOutcome<int64_t> refined;
  if (hw.use_batching && hw.enable_hw && hw.backend == HwBackend::kBitmask) {
    refined = executor.RefineBatches(
        undecided,
        [&] { return BatchHardwareTester(hw, options.sw_distance); },
        [&](int64_t id) { return PolygonPair{&snap.polygon(id), &query}; },
        [d](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
            uint8_t* verdicts) {
          tester.TestWithinDistanceBatch(pairs, d, verdicts);
        });
  } else {
    refined = executor.Refine(
        undecided, [&] { return HwDistanceTester(hw, options.sw_distance); },
        [&](HwDistanceTester& tester, int64_t id) {
          return tester.Test(snap.polygon(id), query, d);
        });
  }
  result.ids.insert(result.ids.end(), refined.accepted.begin(),
                    refined.accepted.end());
  result.hw_counters = refined.counters;
  result.status = refined.status;
  return result;
}

SnapshotQueryResult SnapshotDistanceJoin(const VersionedDataset::Snapshot& a,
                                         const VersionedDataset::Snapshot& b,
                                         double d,
                                         const SnapshotQueryOptions& options) {
  SnapshotQueryResult result;
  const HwConfig hw = DegradedHwConfig(options.hw, options.use_hw,
                                       options.degrade);
  const QueryDeadline deadline =
      QueryDeadline::Start(hw.deadline_ms, hw.cancel);

  const std::vector<std::pair<int64_t, int64_t>> candidates =
      index::JoinWithinDistance(a.index(), b.index(), d);
  result.candidates = static_cast<int64_t>(candidates.size());

  const filter::SlotIntervalGrid* grid_a =
      d >= 0.0 ? EffectiveGrid(options.intervals, options.degrade) : nullptr;
  const filter::SlotIntervalGrid* grid_b =
      d >= 0.0 ? EffectiveGrid(options.intervals_b, options.degrade) : nullptr;

  const bool guarded = deadline.active();
  std::vector<std::pair<int64_t, int64_t>> undecided;
  undecided.reserve(candidates.size());
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (guarded && (ci % 64) == 0 && deadline.Expired()) {
      result.status = deadline.ToStatus();
      return result;
    }
    const auto& [ida, idb] = candidates[ci];
    const geom::Box& ba = a.mbr(ida);
    const geom::Box& bb = b.mbr(idb);
    if (filter::ZeroObjectUpperBound(ba, bb) <= d) {
      result.pairs.emplace_back(ida, idb);
      continue;
    }
    const bool a_larger = ba.Area() >= bb.Area();
    const geom::Polygon& larger = a_larger ? a.polygon(ida) : b.polygon(idb);
    const geom::Box& other = a_larger ? bb : ba;
    if (filter::OneObjectUpperBound(larger, other) <= d) {
      result.pairs.emplace_back(ida, idb);
      continue;
    }
    if (grid_a != nullptr && grid_b != nullptr &&
        filter::DecidePair(grid_a->Get(ida, a.polygon(ida)),
                           grid_b->Get(idb, b.polygon(idb))) ==
            filter::IntervalVerdict::kHit) {
      HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(a.polygon(ida),
                                                       b.polygon(idb), hw));
      result.pairs.emplace_back(ida, idb);
      ++result.interval_hits;
      continue;
    }
    undecided.emplace_back(ida, idb);
  }

  RefinementExecutor executor(1);
  ConfigureExecutor(&executor, hw, &deadline);
  RefinementOutcome<std::pair<int64_t, int64_t>> refined;
  if (hw.use_batching && hw.enable_hw && hw.backend == HwBackend::kBitmask) {
    refined = executor.RefineBatches(
        undecided,
        [&] { return BatchHardwareTester(hw, options.sw_distance); },
        [&](const std::pair<int64_t, int64_t>& c) {
          return PolygonPair{&a.polygon(c.first), &b.polygon(c.second)};
        },
        [d](BatchHardwareTester& tester, std::span<const PolygonPair> pairs,
            uint8_t* verdicts) {
          tester.TestWithinDistanceBatch(pairs, d, verdicts);
        });
  } else {
    refined = executor.Refine(
        undecided, [&] { return HwDistanceTester(hw, options.sw_distance); },
        [&](HwDistanceTester& tester, const std::pair<int64_t, int64_t>& c) {
          return tester.Test(a.polygon(c.first), b.polygon(c.second), d);
        });
  }
  result.pairs.insert(result.pairs.end(), refined.accepted.begin(),
                      refined.accepted.end());
  result.hw_counters = refined.counters;
  result.status = refined.status;
  return result;
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
    const VersionedDataset::Snapshot& a, const VersionedDataset::Snapshot& b) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const std::vector<int64_t> ids_b = b.LiveIds();
  for (const int64_t ida : a.LiveIds()) {
    const geom::Box& box_a = a.mbr(ida);
    for (const int64_t idb : ids_b) {
      if (!box_a.Intersects(b.mbr(idb))) continue;
      if (algo::PolygonsIntersect(a.polygon(ida), b.polygon(idb))) {
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
    const VersionedDataset::Snapshot& a, const VersionedDataset::Snapshot& b,
    double d) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const std::vector<int64_t> ids_b = b.LiveIds();
  for (const int64_t ida : a.LiveIds()) {
    const geom::Box& box_a = a.mbr(ida);
    for (const int64_t idb : ids_b) {
      if (geom::MinDistance(box_a, b.mbr(idb)) > d) continue;
      if (algo::WithinDistance(a.polygon(ida), b.polygon(idb), d)) {
        out.emplace_back(ida, idb);
      }
    }
  }
  return out;
}

}  // namespace hasj::core
