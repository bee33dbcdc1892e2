#ifndef HASJ_DATA_VERSIONED_DATASET_H_
#define HASJ_DATA_VERSIONED_DATASET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "index/dynamic_rtree.h"

namespace hasj::data {

// A mutable polygon store with snapshot-isolated readers (DESIGN.md §16):
// the serving-layer counterpart of the immutable Dataset. Geometry lives in
// a fixed-capacity slot array with write-once slots and stable addresses,
// while visibility is governed entirely by a DynamicRTree over the slot
// MBRs — a snapshot sees exactly the slots live in its pinned index
// version. Ids are slot
// positions and are never reused; the index version counter doubles as the
// content epoch for epoch-keyed caches.
//
// Concurrency: Insert claims a slot with an atomic counter, writes the
// polygon, then publishes it through the index (the index's publish mutex
// orders the slot write before any reader that can see the id). Writers
// need no further coordination. Delete requires an id a completed
// Insert/SeedFrom returned — so the slot read it does cannot race the slot
// write that produced it.
class VersionedDataset {
 public:
  // A pinned, immutable view: one index version plus the slot array. Cheap
  // to copy. Must not outlive the store.
  class Snapshot {
   public:
    Snapshot() = default;

    // Objects visible in this version.
    size_t live() const { return index_.tree().size(); }
    // Content version at pin time (index::DynamicRTree::version).
    uint64_t epoch() const { return index_.version(); }
    geom::Box Bounds() const { return index_.tree().Bounds(); }

    // `id` must be live in this snapshot (returned by one of its queries
    // or LiveIds).
    const geom::Polygon& polygon(int64_t id) const;
    const geom::Box& mbr(int64_t id) const;

    std::vector<int64_t> QueryIntersects(const geom::Box& window) const {
      return index_.tree().QueryIntersects(window);
    }
    std::vector<int64_t> QueryWithinDistance(const geom::Box& query,
                                             double distance) const {
      return index_.tree().QueryWithinDistance(query, distance);
    }
    // Ids live in this version, ascending (for oracle scans).
    std::vector<int64_t> LiveIds() const;

    // The pinned index version: the same RTree class the offline
    // pipelines build, so probes and joins run one code path.
    const index::RTree& index() const { return index_.tree(); }

   private:
    friend class VersionedDataset;
    const VersionedDataset* store_ = nullptr;
    index::DynamicRTree::Snapshot index_;
  };

  // `capacity` bounds the total number of Insert/SeedFrom objects over the
  // store's lifetime (ids are never reused, so deletes do not return
  // capacity).
  VersionedDataset(std::string name, size_t capacity, int max_entries = 16);

  VersionedDataset(const VersionedDataset&) = delete;
  VersionedDataset& operator=(const VersionedDataset&) = delete;

  const std::string& name() const { return name_; }
  size_t capacity() const { return slots_.size(); }
  size_t live() const { return index_.size(); }
  uint64_t epoch() const { return index_.version(); }

  // Bulk-seeds an empty store from `dataset` (ids = dataset positions) in
  // one published version.
  [[nodiscard]] Status SeedFrom(const Dataset& dataset);

  // Adds one polygon; returns its id. kResourceExhausted when lifetime
  // capacity is spent, kInvalidArgument for degenerate polygons. Safe to
  // call from concurrent writers.
  [[nodiscard]] Result<int64_t> Insert(geom::Polygon polygon);

  // Removes object `id` (which a completed Insert/SeedFrom returned);
  // kNotFound when already deleted.
  [[nodiscard]] Status Delete(int64_t id);

  Snapshot snapshot() const;

 private:
  const std::string name_;
  // Write-once geometry slots. Never resized; slot i is written by exactly
  // one Insert (or SeedFrom) before the index publish that makes id i
  // visible, and is immutable afterwards — the publish/pin mutex pair
  // orders the write before every reader that can learn the id.
  // lint:allow(guarded-by-coverage): write-once slots sequenced by the
  // index publish; see the class comment.
  std::vector<geom::Polygon> slots_;
  // Claims slots; min(next_, capacity) slots are spoken for.
  std::atomic<int64_t> next_{0};
  index::DynamicRTree index_;
};

// Applies one generator update op to `store`, maintaining the caller's
// stream-local key -> store id map. Inserts that fail (capacity) surface
// their status and leave the key unmapped; a later delete of such a key is
// a no-op Ok (the stream contract says the key existed, but the store
// never admitted it).
[[nodiscard]] Status ApplyUpdateOp(
    const UpdateOp& op, VersionedDataset* store,
    std::unordered_map<int64_t, int64_t>* key_to_id);

}  // namespace hasj::data

#endif  // HASJ_DATA_VERSIONED_DATASET_H_
