#ifndef HASJ_DATA_DATASET_H_
#define HASJ_DATA_DATASET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "index/rtree.h"

namespace hasj::data {

// Summary statistics in the shape of the paper's Table 2.
struct DatasetStats {
  int64_t count = 0;
  int64_t min_vertices = 0;
  int64_t max_vertices = 0;
  double mean_vertices = 0.0;
  int64_t total_vertices = 0;
  geom::Box extent;
  double mean_mbr_width = 0.0;
  double mean_mbr_height = 0.0;
};

// An immutable view of a dataset's content at one epoch. Holds the polygon
// vector alive independently of later mutations/reloads of the source
// Dataset, so a pipeline that pins a snapshot at query start computes its
// whole result against one consistent version (DESIGN.md §16).
class DatasetSnapshot {
 public:
  DatasetSnapshot() = default;

  size_t size() const { return polygons_ == nullptr ? 0 : polygons_->size(); }
  bool empty() const { return size() == 0; }
  const geom::Polygon& polygon(size_t id) const { return (*polygons_)[id]; }
  const geom::Box& mbr(size_t id) const { return (*polygons_)[id].Bounds(); }
  const std::vector<geom::Polygon>& polygons() const { return *polygons_; }
  const geom::Box& Bounds() const { return extent_; }
  uint64_t epoch() const { return epoch_; }

 private:
  friend class Dataset;
  std::shared_ptr<const std::vector<geom::Polygon>> polygons_;
  geom::Box extent_ = geom::Box::Empty();
  uint64_t epoch_ = 0;
};

// An in-memory polygon dataset: the unit the query pipelines operate on.
// Object ids are positions in the polygon vector.
//
// Content is held copy-on-write: snapshot() is O(1) and returns an
// immutable view; a mutation that would affect outstanding snapshots
// clones the vector first, so snapshots are never torn. Mutations and
// snapshot()/ReplaceWith are safe against each other from any thread; the
// plain accessors (polygon/size/Bounds/...) read without locking and keep
// the legacy contract — callers serialize them against mutations, or pin a
// snapshot and read that instead.
class Dataset {
 public:
  Dataset() : content_(std::make_shared<std::vector<geom::Polygon>>()) {}
  explicit Dataset(std::string name)
      : name_(std::move(name)),
        content_(std::make_shared<std::vector<geom::Polygon>>()) {}

  // Copies share content copy-on-write (either side's next mutation
  // clones); moves steal it. (Explicit because of the Mutex member.)
  Dataset(const Dataset& other);
  Dataset(Dataset&& other) noexcept;
  Dataset& operator=(const Dataset& other);
  Dataset& operator=(Dataset&& other) noexcept;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t size() const { return content_->size(); }
  bool empty() const { return content_->empty(); }
  const geom::Polygon& polygon(size_t id) const { return (*content_)[id]; }
  const geom::Box& mbr(size_t id) const { return (*content_)[id].Bounds(); }
  const std::vector<geom::Polygon>& polygons() const { return *content_; }

  void Add(geom::Polygon polygon) HASJ_EXCLUDES(mu_);

  // Drops every polygon (keeping the name) so the dataset can be refilled
  // in place, e.g. by ReloadDatasetInPlace.
  void Clear() HASJ_EXCLUDES(mu_);

  // Atomically replaces the content with `other`'s in a single epoch bump:
  // readers pinning a snapshot see either the full old or the full new
  // content, never the emptied-out intermediate a Clear+Add loop exposes.
  void ReplaceWith(Dataset&& other) HASJ_EXCLUDES(mu_);

  // Monotone content version: bumped by every Add/Clear/ReplaceWith.
  // Derived snapshots (filter/interval_approx) key on it so a dataset reloaded in place invalidates them instead of
  // silently serving approximations of polygons that no longer exist.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  const geom::Box& Bounds() const { return extent_; }

  // Pins the current content. O(1); safe against concurrent mutations.
  DatasetSnapshot snapshot() const HASJ_EXCLUDES(mu_);

  DatasetStats Stats() const;

  // STR bulk-loaded R-tree over the MBRs (ids = positions).
  index::RTree BuildRTree(int max_entries = 16) const;

 private:
  // Clones content_ if any snapshot (or dataset copy) still shares it.
  void EnsureUniqueLocked() HASJ_REQUIRES(mu_);

  // lint:allow(guarded-by-coverage): set in constructors only, then const.
  std::string name_;
  // Serializes mutations and snapshot()'s pointer copy against them.
  mutable Mutex mu_;
  // Written under mu_; the lock-free legacy accessors above read it under
  // the caller-serialized contract in the class comment.
  // lint:allow(guarded-by-coverage): legacy accessors caller-serialized
  std::shared_ptr<std::vector<geom::Polygon>> content_;
  // lint:allow(guarded-by-coverage): same contract as content_.
  geom::Box extent_ = geom::Box::Empty();
  std::atomic<uint64_t> epoch_{0};
};

// The paper's Equation 2: the base query distance for a within-distance
// join is the mean of the two datasets' average MBR diagonals
// (sqrt(mean width * mean height) per dataset).
double BaseDistance(const Dataset& a, const Dataset& b);

}  // namespace hasj::data

#endif  // HASJ_DATA_DATASET_H_
