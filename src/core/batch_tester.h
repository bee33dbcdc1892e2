#ifndef HASJ_CORE_BATCH_TESTER_H_
#define HASJ_CORE_BATCH_TESTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algo/polygon_distance.h"
#include "common/arena.h"
#include "core/hw_config.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "geom/polygon.h"
#include "glsim/atlas.h"
#include "obs/metrics.h"

namespace hasj::core {

// One refinement candidate by reference. The polygons must outlive the
// batch call — true for dataset-owned polygons, as everywhere in the
// refinement stage.
struct PolygonPair {
  const geom::Polygon* first = nullptr;
  const geom::Polygon* second = nullptr;
};

// Batched tile-atlas execution of the hardware tests (DESIGN.md §9).
//
// The per-pair testers render each candidate into their own tiny window:
// one clear, one projection setup, one readback per pair. This tester packs
// config.batch_size candidates into one glsim::Atlas framebuffer — one tile
// of resolution x resolution pixels per pair — and runs the hardware step
// of a whole batch in two passes:
//
//   fill:  render every pair's FIRST edge chain into its tile
//          (Atlas::FillTileSpans through the row-span kernel engine: a
//          packed 8x8 tile is one OR per primitive);
//   scan:  render every pair's SECOND chain probing the filled tiles
//          (Atlas::ProbeTileSpans), stopping a tile at its first row with
//          a doubly-colored pixel.
//
// The atlas is cleared once per batch instead of once per pair, and the
// whole batch shares two Stopwatch reads. Everything around the hardware
// step is delegated to the per-pair testers' exposed decision skeleton
// (Plan / FinishSurvivor / FinishReject), so the batched decisions — and
// the integer counters — are identical to calling Test() per pair; the
// property-differential suite asserts this pair-for-pair.
//
// Requires the bitmask backend and resolution <= glsim::Atlas::kMaxTileRes
// (checked at construction).
class BatchHardwareTester {
 public:
  explicit BatchHardwareTester(
      const HwConfig& config = {},
      const algo::DistanceOptions& dist_options = {});

  // Intersection verdicts for `pairs`: verdicts[i] = Test(first, second).
  // Handles any pair count by looping over atlas-capacity sub-batches.
  void TestIntersectionBatch(std::span<const PolygonPair> pairs,
                             uint8_t* verdicts);

  // Within-distance verdicts: verdicts[i] = Test(first, second, d).
  void TestWithinDistanceBatch(std::span<const PolygonPair> pairs, double d,
                               uint8_t* verdicts);

  const HwConfig& config() const { return config_; }

  // Inner testers' counters plus the batch-side hardware counters, merged.
  // The totals match the per-pair path; only batch.* is new.
  HwCounters counters() const;

  // Row-span kernel backend the batch passes render through — the same
  // engine the inner per-pair testers resolved from config.simd.
  const glsim::RowSpanEngine& engine() const { return isect_.engine(); }

  // System allocations the per-sub-batch scratch arena has performed.
  // After one warm-up sub-batch at a given size this stops moving — the
  // zero-steady-state-allocation property asserted by
  // tests/property_differential_test.cc.
  int64_t scratch_grow_count() const { return arena_.grow_count(); }

 private:
  void IntersectionSubBatch(std::span<const PolygonPair> pairs,
                            uint8_t* verdicts);
  void DistanceSubBatch(std::span<const PolygonPair> pairs, double d,
                        uint8_t* verdicts);

  // Records the batch-shape histograms of one sub-batch (no-op when
  // metrics are detached).
  void RecordSubBatchShape(size_t pairs, int tiles);

  HwConfig config_;
  HwIntersectionTester isect_;
  HwDistanceTester dist_;
  glsim::Atlas atlas_;
  // Resolved once from config.metrics (null when metrics are off).
  obs::Histogram* batch_pairs_hist_ = nullptr;
  obs::Histogram* batch_tiles_hist_ = nullptr;
  obs::Histogram* occupancy_hist_ = nullptr;
  obs::Histogram* tile_pixels_hist_ = nullptr;
  // Hardware-step counters accrued here (the inner testers never see the
  // batched hardware step): hw_tests, hw_ms, batch.*.
  HwCounters batch_counters_;
  // Per-sub-batch scratch. The plan vectors stay members and are reused
  // for capacity (PairPlan/DistancePlan own std::vectors, so they cannot
  // live in the arena); the trivially-copyable gather scratch — the
  // pair->tile map, the per-tile flag arrays, and the row-span buffer —
  // comes from the bump arena below, Reset() once per sub-batch, so the
  // steady-state batch loop performs zero heap allocations
  // (scratch_grow_count() above).
  std::vector<PairPlan> isect_plans_;
  std::vector<DistancePlan> dist_plans_;
  common::ScratchArena arena_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_BATCH_TESTER_H_
