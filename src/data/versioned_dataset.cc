#include "data/versioned_dataset.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace hasj::data {

VersionedDataset::VersionedDataset(std::string name, size_t capacity,
                                   int max_entries)
    : name_(std::move(name)), slots_(capacity), index_(max_entries) {}

Status VersionedDataset::SeedFrom(const Dataset& dataset) {
  int64_t expected = 0;
  if (!next_.compare_exchange_strong(expected,
                                     static_cast<int64_t>(dataset.size()),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return Status::InvalidArgument("SeedFrom requires an empty store");
  }
  if (dataset.size() > capacity()) {
    return Status::ResourceExhausted("seed dataset exceeds store capacity");
  }
  std::vector<index::DynamicRTree::Entry> entries;
  entries.reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    slots_[i] = dataset.polygon(i);
    entries.push_back({slots_[i].Bounds(), static_cast<int64_t>(i)});
  }
  return index_.BulkLoad(std::move(entries));
}

Result<int64_t> VersionedDataset::Insert(geom::Polygon polygon) {
  if (polygon.size() < 3) {
    return Status::InvalidArgument("Insert polygon needs >= 3 vertices");
  }
  // Claim a slot. Claims are not returned on failure: ids are never
  // reused, so capacity is a lifetime budget.
  const int64_t slot = next_.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= static_cast<int64_t>(capacity())) {
    return Status::ResourceExhausted("versioned dataset capacity spent");
  }
  slots_[static_cast<size_t>(slot)] = std::move(polygon);
  const Status s =
      index_.Insert(slots_[static_cast<size_t>(slot)].Bounds(), slot);
  if (!s.ok()) return s;
  return slot;
}

Status VersionedDataset::Delete(int64_t id) {
  if (id < 0 || id >= static_cast<int64_t>(capacity())) {
    return Status::NotFound("Delete: id outside store capacity");
  }
  return index_.Delete(slots_[static_cast<size_t>(id)].Bounds(), id);
}

VersionedDataset::Snapshot VersionedDataset::snapshot() const {
  Snapshot snap;
  snap.store_ = this;
  snap.index_ = index_.snapshot();
  return snap;
}

const geom::Polygon& VersionedDataset::Snapshot::polygon(int64_t id) const {
  HASJ_CHECK(store_ != nullptr && id >= 0 &&
             id < static_cast<int64_t>(store_->capacity()));
  return store_->slots_[static_cast<size_t>(id)];
}

const geom::Box& VersionedDataset::Snapshot::mbr(int64_t id) const {
  return polygon(id).Bounds();
}

std::vector<int64_t> VersionedDataset::Snapshot::LiveIds() const {
  std::vector<int64_t> ids;
  ids.reserve(live());
  index_.tree().Visit(
      [](const geom::Box&) { return true; },
      [&](const geom::Box&, int64_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status ApplyUpdateOp(const UpdateOp& op, VersionedDataset* store,
                     std::unordered_map<int64_t, int64_t>* key_to_id) {
  if (op.kind == UpdateOp::Kind::kInsert) {
    Result<int64_t> id = store->Insert(op.polygon);
    if (!id.ok()) return id.status();
    (*key_to_id)[op.key] = id.value();
    return Status::Ok();
  }
  auto it = key_to_id->find(op.key);
  if (it == key_to_id->end()) return Status::Ok();  // insert never admitted
  const int64_t id = it->second;
  key_to_id->erase(it);
  return store->Delete(id);
}

}  // namespace hasj::data
