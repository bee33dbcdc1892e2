#ifndef HASJ_INDEX_RTREE_H_
#define HASJ_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "geom/box.h"

namespace hasj::index {

// Node split algorithm used on insertion overflow.
enum class SplitPolicy {
  kQuadratic,  // Guttman's quadratic split (the 2003-era default)
  kRStar,      // R*-tree split: margin-sum axis choice, min-overlap cut
};

// R-tree over (MBR, id) entries: Guttman insertion with a choice of split
// policy, plus Sort-Tile-Recursive bulk loading. This is the MBR-filtering
// substrate of the paper's query pipeline (Figure 8); ids refer into a
// dataset.
//
// Move-only (owns its node tree).
class RTree {
 public:
  struct Entry {
    geom::Box box;
    int64_t id = 0;
  };

  // max_entries: node fanout M; min fill is max(2, M * 2/5) per Guttman's
  // recommendation.
  explicit RTree(int max_entries = 16,
                 SplitPolicy split = SplitPolicy::kQuadratic);
  RTree(RTree&&) noexcept;             // defined out of line: Node is
  RTree& operator=(RTree&&) noexcept;  // incomplete at this point
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  ~RTree();

  // Builds a packed tree bottom-up with Sort-Tile-Recursive; much better
  // quality and build time than repeated insertion for static datasets.
  [[nodiscard]] static RTree BulkLoad(std::vector<Entry> entries, int max_entries = 16);

  void Insert(const geom::Box& box, int64_t id);

  size_t size() const { return size_; }
  int height() const;  // 1 for a single leaf; 0 only for the empty tree

  // Ids of entries whose box intersects the window (closed boxes).
  std::vector<int64_t> QueryIntersects(const geom::Box& window) const;

  // Number of tree nodes a window query touches — the I/O proxy used to
  // compare split policies (bench/ablation_rtree).
  int64_t NodesTouched(const geom::Box& window) const;

  // Ids of entries whose box is within distance d of the query box.
  std::vector<int64_t> QueryWithinDistance(const geom::Box& query,
                                           double d) const;

  // Visits ids of entries whose box satisfies the (conservative) node
  // predicate; `node_pred` must be monotone: true for an entry box implies
  // true for every ancestor box.
  void Visit(const std::function<bool(const geom::Box&)>& node_pred,
             const std::function<void(const geom::Box&, int64_t)>& emit) const;

  // Structural invariants: child boxes contained in parent boxes, fill
  // bounds respected (root excepted), uniform leaf depth.
  [[nodiscard]] Status CheckInvariants() const;

  struct Node;  // exposed for the join's synchronized traversal
  const Node* root() const { return root_.get(); }

 private:
  friend struct RTreeJoinAccess;

  std::unique_ptr<Node> root_;
  int max_entries_;
  int min_entries_;
  SplitPolicy split_ = SplitPolicy::kQuadratic;
  size_t size_ = 0;
};

// All candidate pairs (id_a, id_b) with intersecting MBRs, via synchronized
// tree traversal. The MBR-filtering step of the intersection join.
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
