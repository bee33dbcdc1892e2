#ifndef HASJ_INDEX_RTREE_H_
#define HASJ_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geom/box.h"

namespace hasj::index {

// Immutable R-tree over (MBR, id) entries: the MBR-filtering substrate of
// the paper's query pipeline (Figure 8); ids refer into a dataset. Built
// with Sort-Tile-Recursive bulk loading, or published by a DynamicRTree
// (its copy-on-write insert and delete), so the offline pipelines and the
// server probe and join through this one class.
//
// Move-only: a DynamicRTree snapshot hands out `const RTree&`, so no copy
// can outlive the pin that keeps its version alive (DESIGN.md §16).
class RTree {
 public:
  struct Entry {
    geom::Box box;
    int64_t id = 0;
  };

  // Immutable once in a tree. Children are shared between the versions a
  // DynamicRTree publishes, so any subtree reachable from a tree is frozen.
  struct Node {
    bool leaf = true;
    geom::Box box;
    // Leaf: boxes[i]/ids[i] are entries. Internal: boxes[i] mirrors
    // children[i]->box (cached to keep descent scans contiguous).
    std::vector<geom::Box> boxes;
    std::vector<int64_t> ids;
    std::vector<std::shared_ptr<const Node>> children;

    size_t Count() const { return leaf ? ids.size() : children.size(); }
    // Union of `boxes`: what `box` holds once the node is built.
    geom::Box Cover() const {
      geom::Box cover = geom::Box::Empty();
      for (const geom::Box& b : boxes) cover.Extend(b);
      return cover;
    }
  };

  RTree() = default;  // the empty tree
  RTree(RTree&&) noexcept = default;
  RTree& operator=(RTree&&) noexcept = default;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Builds a packed tree bottom-up with Sort-Tile-Recursive; much better
  // quality and build time than repeated insertion for static datasets.
  // max_entries: node fanout M.
  [[nodiscard]] static RTree BulkLoad(std::vector<Entry> entries, int max_entries = 16);

  size_t size() const { return size_; }
  int height() const;  // 1 for a single leaf; 0 only for the empty tree
  // Union of every entry box; empty for the empty tree.
  geom::Box Bounds() const {
    return root_ == nullptr ? geom::Box::Empty() : root_->box;
  }

  // Ids of entries whose box intersects the window (closed boxes).
  std::vector<int64_t> QueryIntersects(const geom::Box& window) const;

  // Number of tree nodes a window query touches — the I/O proxy used to
  // compare build strategies (bench/ablation_rtree).
  int64_t NodesTouched(const geom::Box& window) const;

  // Ids of entries whose box is within distance d of the query box.
  std::vector<int64_t> QueryWithinDistance(const geom::Box& query,
                                           double d) const;

  // Visits ids of entries whose box satisfies the (conservative) node
  // predicate; `node_pred` must be monotone: true for an entry box implies
  // true for every ancestor box.
  void Visit(const std::function<bool(const geom::Box&)>& node_pred,
             const std::function<void(const geom::Box&, int64_t)>& emit) const;

  // Structural invariants: uniform leaf depth, tight and contained boxes,
  // no overfull node, no empty non-root node, and as many entries as
  // size(). Underfull nodes are legal: STR leaves tail nodes below
  // Guttman's minimum fill and DynamicRTree deletes do not rebalance.
  [[nodiscard]] Status CheckInvariants() const;

  // Root for structure-walking joins; nullptr when empty.
  const Node* root() const { return root_.get(); }

 private:
  friend class DynamicRTree;

  RTree(std::shared_ptr<const Node> root, size_t size, int max_entries)
      : root_(std::move(root)), size_(size), max_entries_(max_entries) {}

  std::shared_ptr<const Node> root_;
  size_t size_ = 0;
  int max_entries_ = 16;
};

// All candidate pairs (id_a, id_b) with intersecting MBRs, via synchronized
// tree traversal. The MBR-filtering step of the intersection join. Either
// side may be an offline tree or a pinned DynamicRTree version.
std::vector<std::pair<int64_t, int64_t>> JoinIntersects(const RTree& a,
                                                        const RTree& b);

// All candidate pairs whose MBRs are within distance d (the MBR distance is
// a lower bound of the object distance). The MBR-filtering step of the
// within-distance join.
std::vector<std::pair<int64_t, int64_t>> JoinWithinDistance(const RTree& a,
                                                            const RTree& b,
                                                            double d);

}  // namespace hasj::index

#endif  // HASJ_INDEX_RTREE_H_
