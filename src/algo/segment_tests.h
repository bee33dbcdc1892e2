#ifndef HASJ_ALGO_SEGMENT_TESTS_H_
#define HASJ_ALGO_SEGMENT_TESTS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/box.h"
#include "geom/polygon.h"
#include "geom/segment.h"

namespace hasj::algo {

// O(|red| * |blue|) exact red-blue segment intersection detection. Reference
// implementation used to validate the plane sweep and the engine
// RedBlueIntersect runs on small inputs.
bool BruteRedBlueIntersect(std::span<const geom::Segment> red,
                           std::span<const geom::Segment> blue);

// Reusable working memory of the plane sweep (event list, status tree
// nodes). A sweep given one allocates nothing once earlier calls have grown
// it to the input's size. One per caller thread, like any tester scratch.
class SweepScratch {
 public:
  SweepScratch();
  ~SweepScratch();
  SweepScratch(SweepScratch&&) noexcept;
  SweepScratch& operator=(SweepScratch&&) noexcept;

 private:
  friend bool SweepRedBlueIntersect(std::span<const geom::Segment> red,
                                    std::span<const geom::Segment> blue,
                                    SweepScratch* scratch);
  struct Buffers;
  std::unique_ptr<Buffers> buffers_;
};

// Shamos-Hoey plane-sweep red-blue intersection detection,
// O((n+m) log(n+m)). Requires that segments of the same color intersect at
// most at shared endpoints (true for edge sets of simple polygons); detects
// every red-blue intersection including endpoint touching and collinear
// overlap. This is the paper's software Segment Intersection Test. Null
// `scratch` uses call-local buffers.
bool SweepRedBlueIntersect(std::span<const geom::Segment> red,
                           std::span<const geom::Segment> blue,
                           SweepScratch* scratch = nullptr);

// Largest |red| * |blue| for which RedBlueIntersect runs the brute pair loop
// rather than the sweep. The loop is allocation-free and streams the edges;
// the sweep sorts events and walks a node-per-segment tree. Measured on the
// clipped edge sets of LANDC x LANDO (scale 0.02) and WATER x PRISM (0.02,
// 0.1) candidates plus translated snake pairs, on a 4-core x86-64 Xeon VM,
// mean us per pair by product bin [2^b, 2^(b+1)), brute vs sweep:
//   boundaries do not cross: b=10  9.3 vs 100;  b=16   621 vs  833;
//                            b=17  1010 vs 1518; b=18  2080 vs 1751
//   boundaries cross:        b=10  1.7 vs  26;  b=16    59 vs  261;
//                            b=17 249 vs 164 and 203 vs 371 (two corpora)
// Brute wins every bin through b=16 on both outcomes (b=17 is mixed on
// crossing pairs), and above the bound the sweep keeps full-scale
// WATER/PRISM pairs on its O(k log k) cost.
inline constexpr int64_t kBruteMaxEdgePairs = int64_t{1} << 16;

// Exact red-blue intersection detection with the engine picked by size:
// the brute pair loop when |red| * |blue| <= kBruteMaxEdgePairs, the plane
// sweep above (same precondition and `scratch` as SweepRedBlueIntersect).
bool RedBlueIntersect(std::span<const geom::Segment> red,
                      std::span<const geom::Segment> blue,
                      SweepScratch* scratch = nullptr);

// The in-view edges of one chain of a polygon (geom::Polygon::kChainEdges
// consecutive edges): the range [begin, end) of an edge list, and the box
// of those edges clipped to the window they were gathered for.
struct EdgeRun {
  uint32_t begin = 0;
  uint32_t end = 0;
  geom::Box box;
};

// Appends to *edges every edge of `polygon` whose box meets the non-empty
// `window` (geom::ForEachEdgeNear, in edge order), and to *runs one EdgeRun
// per chain that has any. Run ranges index *edges as it stands after the
// call; a polygon of at most kChainEdges edges gives at most one run.
void AppendEdgeRuns(const geom::Polygon& polygon, const geom::Box& window,
                    std::vector<geom::Segment>* edges,
                    std::vector<EdgeRun>* runs);

// Sum of |R| * |B| over the run pairs (R of red, B of blue) whose closed
// boxes meet: the run-pair engine's work on a pair whose boundaries do not
// cross. The engine reads nothing past kBruteMaxEdgePairs, so the sum
// stops after the first red run that takes it above that bound: a result
// above kBruteMaxEdgePairs is a lower bound. The box tests grow with the
// product of the two run counts, (|red| / 32) * (|blue| / 32) at most.
int64_t MeetingRunEdgePairs(std::span<const EdgeRun> red_runs,
                            std::span<const EdgeRun> blue_runs);

// Exact red-blue intersection detection over two edge lists grouped into
// runs by AppendEdgeRuns over one window that holds every red-blue
// intersection point (for two polygon boundaries, MBR(P) ∩ MBR(Q)), with
// edge_pairs = MeetingRunEdgePairs(red_runs, blue_runs):
//   - edge_pairs == 0: no intersection, without a segment test;
//   - edge_pairs <= kBruteMaxEdgePairs: the brute loop over the edges of
//     run pairs whose boxes meet only;
//   - above: the plane sweep over the full lists, as RedBlueIntersect.
// Exact because an intersection point x lies in the window, so each of the
// two edges through x lies in a run whose clipped box holds x, and those
// two boxes meet. Same precondition and `scratch` as SweepRedBlueIntersect.
bool RunPairIntersect(std::span<const geom::Segment> red,
                      std::span<const EdgeRun> red_runs,
                      std::span<const geom::Segment> blue,
                      std::span<const EdgeRun> blue_runs, int64_t edge_pairs,
                      SweepScratch* scratch = nullptr);

// Edges of `polygon` that intersect `window`, the restricted-search-space
// optimization of Brinkhoff et al. used by the paper's software test
// (Figure 9(b)): only edges meeting the intersection of the two MBRs can
// participate in a boundary crossing.
std::vector<geom::Segment> EdgesInWindow(const geom::Polygon& polygon,
                                         const geom::Box& window);

}  // namespace hasj::algo

#endif  // HASJ_ALGO_SEGMENT_TESTS_H_
