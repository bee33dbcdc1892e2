#include "index/rtree.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace hasj::index {

namespace {

using Node = RTree::Node;

}  // namespace

RTree RTree::BulkLoad(std::vector<Entry> entries, int max_entries) {
  HASJ_CHECK(max_entries >= 4);
  if (entries.empty()) return RTree(nullptr, 0, max_entries);

  // Sort-Tile-Recursive: sort by center x, cut into vertical slices of
  // ~sqrt(n/M) * M entries, sort each slice by center y, pack runs of M.
  const auto center_x_less = [](const Entry& a, const Entry& b) {
    return a.box.Center().x < b.box.Center().x;
  };
  const auto center_y_less = [](const Entry& a, const Entry& b) {
    return a.box.Center().y < b.box.Center().y;
  };

  std::sort(entries.begin(), entries.end(), center_x_less);
  const size_t n = entries.size();
  const size_t m = static_cast<size_t>(max_entries);
  const size_t num_leaves = (n + m - 1) / m;
  const size_t num_slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slice_size = ((num_leaves + num_slices - 1) / num_slices) * m;

  std::vector<std::shared_ptr<Node>> level;
  for (size_t s = 0; s < n; s += slice_size) {
    const size_t end = std::min(n, s + slice_size);
    std::sort(entries.begin() + static_cast<ptrdiff_t>(s),
              entries.begin() + static_cast<ptrdiff_t>(end), center_y_less);
    for (size_t i = s; i < end; i += m) {
      auto leaf = std::make_shared<Node>();
      leaf->leaf = true;
      for (size_t j = i; j < std::min(end, i + m); ++j) {
        leaf->boxes.push_back(entries[j].box);
        leaf->ids.push_back(entries[j].id);
      }
      leaf->box = leaf->Cover();
      level.push_back(std::move(leaf));
    }
  }

  // Pack upper levels the same way until a single root remains.
  while (level.size() > 1) {
    const auto node_center_x_less = [](const std::shared_ptr<Node>& a,
                                       const std::shared_ptr<Node>& b) {
      return a->box.Center().x < b->box.Center().x;
    };
    const auto node_center_y_less = [](const std::shared_ptr<Node>& a,
                                       const std::shared_ptr<Node>& b) {
      return a->box.Center().y < b->box.Center().y;
    };
    std::sort(level.begin(), level.end(), node_center_x_less);
    const size_t nodes = level.size();
    const size_t num_parents = (nodes + m - 1) / m;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_parents))));
    const size_t sz = ((num_parents + slices - 1) / slices) * m;

    std::vector<std::shared_ptr<Node>> next_level;
    for (size_t s = 0; s < nodes; s += sz) {
      const size_t end = std::min(nodes, s + sz);
      std::sort(level.begin() + static_cast<ptrdiff_t>(s),
                level.begin() + static_cast<ptrdiff_t>(end),
                node_center_y_less);
      for (size_t i = s; i < end; i += m) {
        auto parent = std::make_shared<Node>();
        parent->leaf = false;
        for (size_t j = i; j < std::min(end, i + m); ++j) {
          parent->boxes.push_back(level[j]->box);
          parent->children.push_back(std::move(level[j]));
        }
        parent->box = parent->Cover();
        next_level.push_back(std::move(parent));
      }
    }
    level = std::move(next_level);
  }
  return RTree(std::move(level.front()), n, max_entries);
}

int RTree::height() const {
  if (root_ == nullptr) return 0;
  int h = 1;
  for (const Node* n = root_.get(); !n->leaf; n = n->children[0].get()) ++h;
  return h;
}

void RTree::Visit(
    const std::function<bool(const geom::Box&)>& node_pred,
    const std::function<void(const geom::Box&, int64_t)>& emit) const {
  if (root_ == nullptr) return;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      for (size_t i = 0; i < node->boxes.size(); ++i) {
        if (node_pred(node->boxes[i])) emit(node->boxes[i], node->ids[i]);
      }
    } else {
      for (size_t i = 0; i < node->boxes.size(); ++i) {
        if (node_pred(node->boxes[i])) stack.push_back(node->children[i].get());
      }
    }
  }
}

int64_t RTree::NodesTouched(const geom::Box& window) const {
  if (root_ == nullptr) return 0;
  int64_t touched = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!node->box.Intersects(window)) continue;
    ++touched;
    if (!node->leaf) {
      for (const auto& child : node->children) stack.push_back(child.get());
    }
  }
  return touched;
}

std::vector<int64_t> RTree::QueryIntersects(const geom::Box& window) const {
  std::vector<int64_t> out;
  Visit([&](const geom::Box& b) { return b.Intersects(window); },
        [&](const geom::Box&, int64_t id) { out.push_back(id); });
  return out;
}

std::vector<int64_t> RTree::QueryWithinDistance(const geom::Box& query,
                                                double d) const {
  std::vector<int64_t> out;
  Visit([&](const geom::Box& b) { return geom::MinDistance(b, query) <= d; },
        [&](const geom::Box&, int64_t id) { out.push_back(id); });
  return out;
}

namespace {

Status CheckNode(const Node* node, bool is_root, int max_entries, int depth,
                 int leaf_depth, size_t* entries) {
  if (node->leaf) {
    if (depth != leaf_depth) return Status::Internal("leaves at unequal depth");
    if (node->ids.size() != node->boxes.size()) {
      return Status::Internal("leaf id/box count mismatch");
    }
    *entries += node->ids.size();
  } else {
    if (node->children.size() != node->boxes.size()) {
      return Status::Internal("internal child/box count mismatch");
    }
  }
  const size_t count = node->Count();
  if (!is_root && count == 0) {
    return Status::Internal("empty non-root node");
  }
  if (count > static_cast<size_t>(max_entries)) {
    return Status::Internal("node overfull");
  }
  for (const geom::Box& b : node->boxes) {
    if (!node->box.Contains(b)) {
      return Status::Internal("child box escapes parent");
    }
  }
  if (count > 0 && !(node->Cover() == node->box)) {
    return Status::Internal("node box not tight");
  }
  if (!node->leaf) {
    for (size_t i = 0; i < node->children.size(); ++i) {
      if (!(node->children[i]->box == node->boxes[i])) {
        return Status::Internal("stale child box");
      }
      Status s = CheckNode(node->children[i].get(), false, max_entries,
                           depth + 1, leaf_depth, entries);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

}  // namespace

Status RTree::CheckInvariants() const {
  if (root_ == nullptr) {
    if (size_ != 0) return Status::Internal("size nonzero with null root");
    return Status::Ok();
  }
  if (size_ == 0) return Status::Internal("size zero with live root");
  size_t entries = 0;
  Status s = CheckNode(root_.get(), true, max_entries_, 0, height() - 1,
                       &entries);
  if (!s.ok()) return s;
  if (entries != size_) {
    return Status::Internal("entry count does not match size");
  }
  return Status::Ok();
}

namespace {

// Synchronized traversal emitting entry pairs whose boxes satisfy `pred`
// (monotone under box enlargement).
template <typename Pred>
void JoinRec(const Node* a, const Node* b, const Pred& pred,
             std::vector<std::pair<int64_t, int64_t>>& out) {
  if (!pred(a->box, b->box)) return;
  if (a->leaf && b->leaf) {
    for (size_t i = 0; i < a->boxes.size(); ++i) {
      for (size_t j = 0; j < b->boxes.size(); ++j) {
        if (pred(a->boxes[i], b->boxes[j])) {
          out.emplace_back(a->ids[i], b->ids[j]);
        }
      }
    }
    return;
  }
  // Descend the non-leaf side(s); with both internal, descend pairwise.
  if (a->leaf) {
    for (const auto& child : b->children) JoinRec(a, child.get(), pred, out);
  } else if (b->leaf) {
    for (const auto& child : a->children) JoinRec(child.get(), b, pred, out);
  } else {
    for (const auto& ca : a->children) {
      for (const auto& cb : b->children) {
        JoinRec(ca.get(), cb.get(), pred, out);
      }
    }
  }
}

}  // namespace

std::vector<std::pair<int64_t, int64_t>> JoinIntersects(const RTree& a,
                                                        const RTree& b) {
  std::vector<std::pair<int64_t, int64_t>> out;
  if (a.root() == nullptr || b.root() == nullptr) return out;
  JoinRec(a.root(), b.root(),
          [](const geom::Box& x, const geom::Box& y) { return x.Intersects(y); },
          out);
  return out;
}

std::vector<std::pair<int64_t, int64_t>> JoinWithinDistance(const RTree& a,
                                                            const RTree& b,
                                                            double d) {
  std::vector<std::pair<int64_t, int64_t>> out;
  if (a.root() == nullptr || b.root() == nullptr) return out;
  JoinRec(a.root(), b.root(),
          [d](const geom::Box& x, const geom::Box& y) {
            return geom::MinDistance(x, y) <= d;
          },
          out);
  return out;
}

}  // namespace hasj::index
