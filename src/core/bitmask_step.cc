#include "core/bitmask_step.h"

namespace hasj::core {
namespace {

bool FillsP(const StepPair& pair) { return pair.ep.size() <= pair.eq.size(); }

// Calls f(a, b) in window coordinates for every primitive of `edges`, in
// order, until f returns false: the edge's line, then (caps) the wide
// points at its ends as degenerate lines a == b. Chained edges share
// endpoints, so each end cap is drawn once.
template <typename F>
void ForEachPrimitive(std::span<const geom::Segment> edges,
                      const StepPair& pair, F&& f) {
  for (size_t i = 0; i < edges.size(); ++i) {
    const geom::Point a = pair.xf.ToWindow(edges[i].a);
    const geom::Point b = pair.xf.ToWindow(edges[i].b);
    if (!f(a, b)) return;
    if (!pair.caps) continue;
    if ((i == 0 || !(edges[i - 1].b == edges[i].a)) && !f(a, a)) return;
    if (!f(b, b)) return;
  }
}

}  // namespace

int64_t BitmaskStep::Fill(const StepPair& pair,
                          glsim::PixelMask& mask) const {
  const int res = mask.width();
  const int64_t area = static_cast<int64_t>(res) * res;
  int64_t set = 0;
  ForEachPrimitive(FillsP(pair) ? pair.ep : pair.eq, pair,
                   [&](geom::Point a, geom::Point b) {
                     // A full mask stays full: the rest cannot change it.
                     if (set == area) return false;
                     glsim::PixelBox box;
                     if (!glsim::LineAAPixelBox(a, b, pair.width_px, res, res,
                                                &box) ||
                         mask.AllSet(box)) {
                       return true;
                     }
                     glsim::ComputeLineAASpans(a, b, pair.width_px, res, res,
                                               spans);
                     const glsim::FillResult fr = mask.FillSpans(engine, spans);
                     counters->fill_spans += fr.spans;
                     set += fr.newly_set;
                     return true;
                   });
  if (pixels_hist != nullptr) pixels_hist->Record(set);
  if (set == area) {
    ++counters->fill_saturation_stops;
    if (trace != nullptr) trace->Instant("hw-saturated", "hw");
  }
  return set;
}

bool BitmaskStep::Probe(const StepPair& pair,
                        const glsim::PixelMask& mask) const {
  const int res = mask.width();
  bool hit = false;
  ForEachPrimitive(FillsP(pair) ? pair.eq : pair.ep, pair,
                   [&](geom::Point a, geom::Point b) {
                     glsim::PixelBox box;
                     if (!glsim::LineAAPixelBox(a, b, pair.width_px, res, res,
                                                &box) ||
                         !mask.AnySet(box)) {
                       return true;
                     }
                     glsim::ComputeLineAASpans(a, b, pair.width_px, res, res,
                                               spans);
                     // The probe kernel stops at the first row containing a
                     // doubly-colored pixel — the early-stop point every
                     // simd backend must share — and the loop with it.
                     const glsim::ProbeResult pr =
                         mask.ProbeSpans(engine, spans);
                     counters->scan_spans += pr.spans;
                     hit = pr.hit_row >= 0;
                     return !hit;
                   });
  if (hit) ++counters->scan_hit_stops;
  return hit;
}

}  // namespace hasj::core
