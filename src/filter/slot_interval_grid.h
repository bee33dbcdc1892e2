#ifndef HASJ_FILTER_SLOT_INTERVAL_GRID_H_
#define HASJ_FILTER_SLOT_INTERVAL_GRID_H_

#include <cstdint>
#include <memory>
// lint:allow(naked-mutex): once_flag/call_once only, per-slot one-time init
#include <mutex>
#include <vector>

#include "common/status.h"
#include "filter/interval_approx.h"
#include "geom/box.h"
#include "geom/polygon.h"

namespace hasj::filter {

// Per-slot raster-interval approximations for a mutable store
// (data::VersionedDataset). The dataset-level IntervalApproxCache rebuilds
// the whole approximation whenever the epoch moves — correct for reloads,
// hopeless under update traffic where every insert bumps the epoch. This
// grid instead fixes the frame and resolution up front (the serving frame
// is known at store creation) and approximates each write-once slot at most
// once, on first use, under a per-slot std::call_once. Slots are immutable
// once written and ids are never reused, so a cached approximation can
// never go stale.
//
// Thread-safe: any number of readers may call Get/Approximate concurrently.
class SlotIntervalGrid {
 public:
  // `frame` should enclose every polygon the store will ever hold: a slot
  // whose polygon the frame does not enclose stays unapproximated
  // (kInconclusive with anything), which costs decisions, never
  // correctness. `capacity` matches the store's slot capacity.
  [[nodiscard]] static Result<SlotIntervalGrid> Create(
      const geom::Box& frame, size_t capacity,
      const IntervalApproxConfig& config = {});

  SlotIntervalGrid(SlotIntervalGrid&&) = default;
  SlotIntervalGrid& operator=(SlotIntervalGrid&&) = default;

  // The approximation of slot `id`, computing it on first use. `polygon`
  // must be slot id's geometry (write-once, so every caller passes the same
  // object).
  const ObjectIntervals& Get(int64_t id, const geom::Polygon& polygon) const;

  // Approximates an ad-hoc (query) object against the same grid.
  ObjectIntervals Approximate(const geom::Polygon& polygon) const {
    return base_.ApproximateObject(polygon);
  }

  int grid_bits() const { return base_.grid_bits(); }
  const geom::Box& frame() const { return base_.frame(); }
  size_t capacity() const { return slots_->size(); }

 private:
  SlotIntervalGrid() = default;

  // Zero-object approximation carrying the frame/grid mapping.
  IntervalApprox base_;
  // Write-once slot approximations; slot i is written inside flags_[i]'s
  // call_once, which sequences the write before every later reader.
  std::unique_ptr<std::vector<ObjectIntervals>> slots_;
  std::unique_ptr<std::once_flag[]> flags_;
};

}  // namespace hasj::filter

#endif  // HASJ_FILTER_SLOT_INTERVAL_GRID_H_
