#include "filter/slot_interval_grid.h"

#include <utility>

namespace hasj::filter {

Result<SlotIntervalGrid> SlotIntervalGrid::Create(
    const geom::Box& frame, size_t capacity,
    const IntervalApproxConfig& config) {
  if (frame.IsEmpty() || frame.Width() <= 0.0 || frame.Height() <= 0.0) {
    return Status::InvalidArgument("slot interval grid needs a 2-d frame");
  }
  // Zero-polygon build: validates the config and captures the frame/grid
  // mapping every later per-slot approximation reuses.
  auto base = BuildIntervalApprox({}, frame, config);
  if (!base.ok()) return base.status();
  SlotIntervalGrid grid;
  grid.base_ = std::move(base).value();
  grid.slots_ = std::make_unique<std::vector<ObjectIntervals>>(capacity);
  grid.flags_ = std::make_unique<std::once_flag[]>(capacity);
  return grid;
}

const ObjectIntervals& SlotIntervalGrid::Get(
    int64_t id, const geom::Polygon& polygon) const {
  ObjectIntervals& slot = (*slots_)[static_cast<size_t>(id)];
  std::call_once(flags_[static_cast<size_t>(id)], [&] {
    // Clipped to the frame, two objects that overlap only outside it
    // would look disjoint; an object the frame does not enclose stays
    // unapproximated, so every pair touching it is inconclusive.
    if (base_.frame().Contains(polygon.Bounds())) {
      slot = base_.ApproximateObject(polygon);
    }
  });
  return slot;
}

}  // namespace hasj::filter
