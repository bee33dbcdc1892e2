#include "index/dynamic_rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/macros.h"

namespace hasj::index {

// A published version and its stamp. VersionStates are immutable after
// Publish.
struct DynamicRTree::VersionState {
  RTree tree;
  uint64_t version = 0;
};

// Unpins its version on destruction. Shared by every copy of a Snapshot.
struct DynamicRTree::Snapshot::Pin {
  const DynamicRTree* owner = nullptr;
  std::shared_ptr<const VersionState> state;

  Pin(const DynamicRTree* o, std::shared_ptr<const VersionState> s)
      : owner(o), state(std::move(s)) {}
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;
  ~Pin() { owner->Unpin(state->version); }
};

namespace {

using Node = RTree::Node;

double EnlargementNeeded(const geom::Box& node, const geom::Box& add) {
  geom::Box merged = node;
  merged.Extend(add);
  return merged.Area() - node.Area();
}

// Guttman's quadratic PickSeeds: the pair wasting the most area together.
std::pair<size_t, size_t> PickSeeds(const std::vector<geom::Box>& boxes) {
  size_t s0 = 0, s1 = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < boxes.size(); ++i) {
    for (size_t j = i + 1; j < boxes.size(); ++j) {
      geom::Box merged = boxes[i];
      merged.Extend(boxes[j]);
      const double waste = merged.Area() - boxes[i].Area() - boxes[j].Area();
      if (waste > worst) {
        worst = waste;
        s0 = i;
        s1 = j;
      }
    }
  }
  return {s0, s1};
}

// Guttman's quadratic split over a freshly built (not yet published) node.
// `node` keeps group 1, the returned sibling takes group 2. Children are
// shared_ptrs because untouched subtrees stay shared with older versions.
std::shared_ptr<Node> QuadraticSplit(Node* node, int min_entries) {
  const size_t n = node->boxes.size();
  auto [seed0, seed1] = PickSeeds(node->boxes);

  std::vector<geom::Box> boxes = std::move(node->boxes);
  std::vector<int64_t> ids = std::move(node->ids);
  std::vector<std::shared_ptr<const Node>> children =
      std::move(node->children);
  node->boxes.clear();
  node->ids.clear();
  node->children.clear();

  auto sibling = std::make_shared<Node>();
  sibling->leaf = node->leaf;

  std::vector<bool> assigned(n, false);
  auto put = [&](Node* dst, size_t i) {
    dst->boxes.push_back(boxes[i]);
    if (dst->leaf) {
      dst->ids.push_back(ids[i]);
    } else {
      dst->children.push_back(std::move(children[i]));
    }
    assigned[i] = true;
  };
  put(node, seed0);
  put(sibling.get(), seed1);
  geom::Box cover0 = boxes[seed0];
  geom::Box cover1 = boxes[seed1];

  size_t remaining = n - 2;
  while (remaining > 0) {
    // If one group must take everything left to reach the minimum fill,
    // assign the rest to it.
    Node* forced = nullptr;
    if (node->Count() + remaining == static_cast<size_t>(min_entries)) {
      forced = node;
    } else if (sibling->Count() + remaining ==
               static_cast<size_t>(min_entries)) {
      forced = sibling.get();
    }
    if (forced != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (!assigned[i]) {
          put(forced, i);
          (forced == node ? cover0 : cover1).Extend(boxes[i]);
        }
      }
      remaining = 0;
      break;
    }

    // PickNext: the entry with the largest preference for one group.
    size_t best = 0;
    double best_diff = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (assigned[i]) continue;
      const double d0 = EnlargementNeeded(cover0, boxes[i]);
      const double d1 = EnlargementNeeded(cover1, boxes[i]);
      const double diff = std::fabs(d0 - d1);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
      }
    }
    const double d0 = EnlargementNeeded(cover0, boxes[best]);
    const double d1 = EnlargementNeeded(cover1, boxes[best]);
    Node* dst;
    if (d0 < d1) {
      dst = node;
    } else if (d1 < d0) {
      dst = sibling.get();
    } else {
      dst = cover0.Area() <= cover1.Area() ? node : sibling.get();
    }
    put(dst, best);
    (dst == node ? cover0 : cover1).Extend(boxes[best]);
    --remaining;
  }

  node->box = node->Cover();
  sibling->box = sibling->Cover();
  return sibling;
}

// Copy-on-write insert: returns a clone of `node` with (box, id) added.
// Only the descent path is cloned; all other subtrees are shared with the
// source version. On overflow the clone is split and *split receives the
// sibling.
std::shared_ptr<Node> InsertCow(const Node& node, const geom::Box& box,
                                int64_t id, int max_entries, int min_entries,
                                std::shared_ptr<Node>* split) {
  auto clone = std::make_shared<Node>(node);
  if (clone->leaf) {
    clone->boxes.push_back(box);
    clone->ids.push_back(id);
    clone->box.Extend(box);
    if (clone->Count() > static_cast<size_t>(max_entries)) {
      *split = QuadraticSplit(clone.get(), min_entries);
    }
    return clone;
  }

  // ChooseLeaf: child needing least enlargement, ties by smallest area.
  size_t best = 0;
  double best_enl = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < clone->boxes.size(); ++i) {
    const double enl = EnlargementNeeded(clone->boxes[i], box);
    const double area = clone->boxes[i].Area();
    if (enl < best_enl || (enl == best_enl && area < best_area)) {
      best_enl = enl;
      best_area = area;
      best = i;
    }
  }

  std::shared_ptr<Node> child_split;
  clone->children[best] = InsertCow(*clone->children[best], box, id,
                                    max_entries, min_entries, &child_split);
  clone->boxes[best] = clone->children[best]->box;
  clone->box.Extend(box);
  if (child_split != nullptr) {
    clone->boxes.push_back(child_split->box);
    clone->children.push_back(std::move(child_split));
    if (clone->Count() > static_cast<size_t>(max_entries)) {
      *split = QuadraticSplit(clone.get(), min_entries);
    }
  }
  return clone;
}

// Copy-on-write delete of one exact (box, id) entry. Returns the cloned
// subtree with the entry removed, or nullptr when the subtree emptied out
// (the caller drops it). *found stays false when no entry matched, in
// which case nothing was cloned along this branch.
std::shared_ptr<const Node> DeleteCow(const Node& node, const geom::Box& box,
                                      int64_t id, bool* found) {
  if (node.leaf) {
    for (size_t i = 0; i < node.ids.size(); ++i) {
      if (node.ids[i] == id && node.boxes[i] == box) {
        *found = true;
        if (node.ids.size() == 1) return nullptr;
        auto clone = std::make_shared<Node>(node);
        clone->boxes.erase(clone->boxes.begin() +
                           static_cast<ptrdiff_t>(i));
        clone->ids.erase(clone->ids.begin() + static_cast<ptrdiff_t>(i));
        clone->box = clone->Cover();
        return clone;
      }
    }
    return nullptr;
  }

  for (size_t i = 0; i < node.children.size(); ++i) {
    // Every entry box is contained in its ancestors' boxes (Insert extends
    // the whole descent path), so only containing children can hold it.
    if (!node.boxes[i].Contains(box)) continue;
    bool child_found = false;
    std::shared_ptr<const Node> child =
        DeleteCow(*node.children[i], box, id, &child_found);
    if (!child_found) continue;
    *found = true;
    if (child == nullptr && node.children.size() == 1) return nullptr;
    auto clone = std::make_shared<Node>(node);
    if (child == nullptr) {
      clone->boxes.erase(clone->boxes.begin() + static_cast<ptrdiff_t>(i));
      clone->children.erase(clone->children.begin() +
                            static_cast<ptrdiff_t>(i));
    } else {
      clone->boxes[i] = child->box;
      clone->children[i] = std::move(child);
    }
    clone->box = clone->Cover();
    return clone;
  }
  return nullptr;
}

}  // namespace

DynamicRTree::DynamicRTree(int max_entries)
    : max_entries_(max_entries),
      min_entries_(std::max(2, max_entries * 2 / 5)) {
  HASJ_CHECK(max_entries >= 4);
  auto empty = std::make_shared<VersionState>();
  MutexLock lock(&state_mu_);
  current_ = std::move(empty);
}

DynamicRTree::~DynamicRTree() = default;

std::shared_ptr<const DynamicRTree::VersionState> DynamicRTree::Current()
    const {
  MutexLock lock(&state_mu_);
  return current_;
}

void DynamicRTree::Publish(RTree tree) {
  auto next = std::make_shared<VersionState>();
  next->tree = std::move(tree);
  std::vector<std::shared_ptr<const VersionState>> reclaim;
  {
    MutexLock lock(&state_mu_);
    next->version = current_->version + 1;
    limbo_.push_back(std::move(current_));
    ++retired_total_;
    current_ = std::move(next);
    CollectLocked(&reclaim);
  }
  // Node destruction (potentially a whole unshared subtree) happens here,
  // outside both locks.
}

void DynamicRTree::Unpin(uint64_t version) const {
  std::vector<std::shared_ptr<const VersionState>> reclaim;
  {
    MutexLock lock(&state_mu_);
    auto it = pins_.find(version);
    HASJ_CHECK(it != pins_.end());
    if (--it->second == 0) {
      pins_.erase(it);
      CollectLocked(&reclaim);
    }
  }
}

void DynamicRTree::CollectLocked(
    std::vector<std::shared_ptr<const VersionState>>* reclaim) const {
  const uint64_t min_pinned = pins_.empty()
                                  ? std::numeric_limits<uint64_t>::max()
                                  : pins_.begin()->first;
  size_t kept = 0;
  for (auto& state : limbo_) {
    if (state->version < min_pinned) {
      reclaim->push_back(std::move(state));
      ++reclaimed_total_;
    } else {
      limbo_[kept++] = std::move(state);
    }
  }
  limbo_.resize(kept);
}

Status DynamicRTree::BulkLoad(std::vector<Entry> entries) {
  MutexLock writer(&writer_mu_);
  if (Current()->tree.size() != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  for (const Entry& entry : entries) {
    if (entry.box.IsEmpty()) {
      return Status::InvalidArgument("BulkLoad entry with empty box");
    }
  }
  Publish(RTree::BulkLoad(std::move(entries), max_entries_));
  return Status::Ok();
}

Status DynamicRTree::Insert(const geom::Box& box, int64_t id) {
  if (box.IsEmpty() || !std::isfinite(box.min_x) ||
      !std::isfinite(box.min_y) || !std::isfinite(box.max_x) ||
      !std::isfinite(box.max_y)) {
    return Status::InvalidArgument("Insert box must be non-empty and finite");
  }

  MutexLock writer(&writer_mu_);
  const std::shared_ptr<const VersionState> cur = Current();
  std::shared_ptr<Node> root;
  if (cur->tree.root() == nullptr) {
    root = std::make_shared<Node>();
    root->leaf = true;
    root->boxes.push_back(box);
    root->ids.push_back(id);
    root->box = box;
  } else {
    std::shared_ptr<Node> split;
    root = InsertCow(*cur->tree.root(), box, id, max_entries_, min_entries_,
                     &split);
    if (split != nullptr) {
      auto new_root = std::make_shared<Node>();
      new_root->leaf = false;
      new_root->boxes.push_back(root->box);
      new_root->boxes.push_back(split->box);
      new_root->children.push_back(std::move(root));
      new_root->children.push_back(std::move(split));
      new_root->box = new_root->Cover();
      root = std::move(new_root);
    }
  }
  Publish(RTree(std::move(root), cur->tree.size() + 1, max_entries_));
  return Status::Ok();
}

Status DynamicRTree::Delete(const geom::Box& box, int64_t id) {
  MutexLock writer(&writer_mu_);
  const std::shared_ptr<const VersionState> cur = Current();
  bool found = false;
  std::shared_ptr<const Node> root;
  if (cur->tree.root() != nullptr) {
    root = DeleteCow(*cur->tree.root(), box, id, &found);
  }
  if (!found) {
    return Status::NotFound("Delete: entry not in tree");
  }
  // Collapse a single-child internal root so the height shrinks back.
  while (root != nullptr && !root->leaf && root->children.size() == 1) {
    root = root->children[0];
  }
  Publish(RTree(std::move(root), cur->tree.size() - 1, max_entries_));
  return Status::Ok();
}

DynamicRTree::Snapshot DynamicRTree::snapshot() const {
  Snapshot snap;
  MutexLock lock(&state_mu_);
  ++pins_[current_->version];
  snap.pin_ = std::make_shared<const Snapshot::Pin>(this, current_);
  return snap;
}

size_t DynamicRTree::size() const { return Current()->tree.size(); }

uint64_t DynamicRTree::version() const { return Current()->version; }

int64_t DynamicRTree::retired_versions() const {
  MutexLock lock(&state_mu_);
  return retired_total_;
}

int64_t DynamicRTree::reclaimed_versions() const {
  MutexLock lock(&state_mu_);
  return reclaimed_total_;
}

int64_t DynamicRTree::limbo_versions() const {
  MutexLock lock(&state_mu_);
  return static_cast<int64_t>(limbo_.size());
}

const RTree& DynamicRTree::Snapshot::tree() const {
  static const RTree kEmpty;
  return pin_ == nullptr ? kEmpty : pin_->state->tree;
}

uint64_t DynamicRTree::Snapshot::version() const {
  return pin_ == nullptr ? 0 : pin_->state->version;
}

}  // namespace hasj::index
