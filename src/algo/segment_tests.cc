#include "algo/segment_tests.h"

#include <algorithm>
#include <memory_resource>
#include <optional>
#include <set>

#include "common/macros.h"
#include "geom/predicates.h"

namespace hasj::algo {

bool BruteRedBlueIntersect(std::span<const geom::Segment> red,
                           std::span<const geom::Segment> blue) {
  for (const geom::Segment& r : red) {
    for (const geom::Segment& b : blue) {
      if (geom::SegmentsIntersect(r, b)) return true;
    }
  }
  return false;
}

bool RedBlueIntersect(std::span<const geom::Segment> red,
                      std::span<const geom::Segment> blue,
                      SweepScratch* scratch) {
  const int64_t pairs =
      static_cast<int64_t>(red.size()) * static_cast<int64_t>(blue.size());
  return pairs <= kBruteMaxEdgePairs
             ? BruteRedBlueIntersect(red, blue)
             : SweepRedBlueIntersect(red, blue, scratch);
}

std::vector<geom::Segment> EdgesInWindow(const geom::Polygon& polygon,
                                         const geom::Box& window) {
  std::vector<geom::Segment> out;
  geom::ForEachEdgeNear(polygon, window, [&](const geom::Segment& e) {
    if (geom::SegmentIntersectsBox(e, window)) out.push_back(e);
    return true;
  });
  return out;
}

namespace {

// Internal segment representation for the sweep: endpoints normalized to
// lexicographic order (left to right; verticals bottom to top).
struct SweepSeg {
  geom::Point a;
  geom::Point b;
  int color;
  int id;
  bool vertical;
};

// Position of the sweep-front segment `n` (its left endpoint is exactly on
// the sweep line) relative to the active segment `t` (which spans the sweep
// line): +1 above, -1 below, 0 collinear with t. Ties at the point are
// broken by slope (the order just right of the sweep line).
int RelPos(const SweepSeg* n, const SweepSeg* t) {
  const int at_point = geom::Orient2d(t->a, t->b, n->a);
  if (at_point != 0) return at_point;
  return geom::Orient2d(t->a, t->b, n->b);
}

// Orders active segments bottom-to-top at the current sweep position. Only
// comparisons involving the segment currently being inserted (or used as a
// probe) ever occur; `current` identifies it.
struct StatusLess {
  const SweepSeg* const* current;

  bool operator()(const SweepSeg* u, const SweepSeg* v) const {
    if (u == v) return false;
    if (u == *current) {
      const int r = RelPos(u, v);
      return r != 0 ? r < 0 : u->id < v->id;
    }
    HASJ_DCHECK(v == *current);
    const int r = RelPos(v, u);
    return r != 0 ? r > 0 : u->id < v->id;
  }
};

enum class EventType { kInsert = 0, kVertical = 1, kRemove = 2 };

struct Event {
  geom::Point p;
  EventType type;
  SweepSeg* seg;
};

bool CrossColorIntersect(const SweepSeg* u, const SweepSeg* v) {
  if (u->color == v->color) return false;
  return geom::SegmentsIntersect(geom::Segment(u->a, u->b),
                                 geom::Segment(v->a, v->b));
}

using Status = std::pmr::set<SweepSeg*, StatusLess>;

}  // namespace

struct SweepScratch::Buffers {
  std::vector<SweepSeg> segs;
  std::vector<Event> events;
  std::vector<Status::iterator> handle;
  std::vector<SweepSeg*> verticals_here;
  // Status tree nodes: a finished sweep returns them here, not to the heap.
  std::pmr::unsynchronized_pool_resource nodes;
};

SweepScratch::SweepScratch() : buffers_(std::make_unique<Buffers>()) {}
SweepScratch::~SweepScratch() = default;
SweepScratch::SweepScratch(SweepScratch&&) noexcept = default;
SweepScratch& SweepScratch::operator=(SweepScratch&&) noexcept = default;

bool SweepRedBlueIntersect(std::span<const geom::Segment> red,
                           std::span<const geom::Segment> blue,
                           SweepScratch* scratch) {
  std::optional<SweepScratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  SweepScratch::Buffers& buffers = *scratch->buffers_;
  std::vector<SweepSeg>& segs = buffers.segs;
  segs.clear();
  segs.reserve(red.size() + blue.size());
  int next_id = 0;
  auto add = [&](const geom::Segment& s, int color) {
    SweepSeg ss;
    ss.a = s.a;
    ss.b = s.b;
    if (ss.b < ss.a) std::swap(ss.a, ss.b);
    ss.color = color;
    ss.id = next_id++;
    // lint:allow(float-eq): exact verticality decides the sweep branch
    ss.vertical = ss.a.x == ss.b.x;  // includes degenerate point segments
    segs.push_back(ss);
  };
  for (const geom::Segment& s : red) add(s, 0);
  for (const geom::Segment& s : blue) add(s, 1);

  std::vector<Event>& events = buffers.events;
  events.clear();
  events.reserve(2 * segs.size());
  for (SweepSeg& s : segs) {
    if (s.vertical) {
      events.push_back({s.a, EventType::kVertical, &s});
    } else {
      events.push_back({s.a, EventType::kInsert, &s});
      events.push_back({s.b, EventType::kRemove, &s});
    }
  }
  // Process inserts, then verticals, then removals at equal x so that
  // segments meeting exactly at x are simultaneously active when tested.
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    if (x.p.x != y.p.x) return x.p.x < y.p.x;  // lint:allow(float-eq): exact event tie-break
    if (x.type != y.type) return static_cast<int>(x.type) < static_cast<int>(y.type);
    if (x.p.y != y.p.y) return x.p.y < y.p.y;  // lint:allow(float-eq): exact event tie-break
    return x.seg->id < y.seg->id;
  });

  const SweepSeg* current = nullptr;
  Status status{StatusLess{&current}, &buffers.nodes};
  std::vector<Status::iterator>& handle = buffers.handle;
  handle.resize(segs.size());

  // Verticals already processed at the current x (for vertical-vertical
  // overlap testing; they never enter the status structure).
  std::vector<SweepSeg*>& verticals_here = buffers.verticals_here;
  verticals_here.clear();
  double verticals_x = 0.0;

  for (const Event& e : events) {
    switch (e.type) {
      case EventType::kInsert: {
        current = e.seg;
        const auto [it, inserted] = status.insert(e.seg);
        HASJ_CHECK(inserted);
        handle[static_cast<size_t>(e.seg->id)] = it;
        if (const auto nx = std::next(it);
            nx != status.end() && CrossColorIntersect(e.seg, *nx)) {
          return true;
        }
        if (it != status.begin() &&
            CrossColorIntersect(e.seg, *std::prev(it))) {
          return true;
        }
        break;
      }
      case EventType::kRemove: {
        const auto it = handle[static_cast<size_t>(e.seg->id)];
        SweepSeg* below = it != status.begin() ? *std::prev(it) : nullptr;
        const auto nx = std::next(it);
        SweepSeg* above = nx != status.end() ? *nx : nullptr;
        status.erase(it);
        // The removed segment's neighbors become adjacent: test them.
        if (below != nullptr && above != nullptr &&
            CrossColorIntersect(below, above)) {
          return true;
        }
        break;
      }
      case EventType::kVertical: {
        // lint:allow(float-eq): verticals batch by exact event x
        if (!verticals_here.empty() && verticals_x != e.p.x) {
          verticals_here.clear();
        }
        for (SweepSeg* other : verticals_here) {
          if (CrossColorIntersect(e.seg, other)) return true;
        }
        verticals_here.push_back(e.seg);
        verticals_x = e.p.x;

        // Walk the status from just below the vertical's bottom endpoint
        // upward until an active segment is strictly above its top.
        current = e.seg;
        auto it = status.lower_bound(e.seg);
        if (it != status.begin() && CrossColorIntersect(e.seg, *std::prev(it))) {
          return true;
        }
        for (; it != status.end(); ++it) {
          if (CrossColorIntersect(e.seg, *it)) return true;
          if (geom::Orient2d((*it)->a, (*it)->b, e.seg->b) < 0) break;
        }
        break;
      }
    }
  }
  return false;
}

}  // namespace hasj::algo
