#ifndef HASJ_CORE_BITMASK_STEP_H_
#define HASJ_CORE_BITMASK_STEP_H_

#include <cstdint>
#include <span>

#include "core/hw_config.h"
#include "geom/segment.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"
#include "glsim/rowspan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hasj::core {

// One pair as the bitmask hardware step renders it: both sides' in-view
// edges, the viewport -> window projection, and the primitive width. An
// intersection test renders each edge as an anti-aliased line; a distance
// test (caps) renders the dilated boundary, each edge as a line of width D
// plus a wide point of size D at each end, one per chained endpoint.
struct StepPair {
  std::span<const geom::Segment> ep;
  std::span<const geom::Segment> eq;
  glsim::WindowTransform xf;
  double width_px = 0.0;
  bool caps = false;
};

// The bitmask hardware step of Algorithm 3.1 and its distance extension
// (DESIGN.md §9, §14), written once for the per-pair testers and both atlas
// passes of BatchHardwareTester, so every path renders the same primitives
// and counts the same HwCounters work (fill_spans, scan_spans and the two
// early stops).
//
// Fill renders the side with fewer in-view edges (ties: p) into a clear
// mask; Probe renders the other side against it. The predicate — some
// pixel covered by both sides — is symmetric, so the choice changes the
// work, never the answer. Work that cannot change the answer is skipped
// before any span is built: a fill whose pixel box (a superset of its
// spans, glsim::LineAAPixelBox) is already all set, every fill once the
// mask is full, a probe whose box holds no set pixel, and every probe
// after the first hit. Consecutive segments of a chain share pixels, so
// the box tests skip most of a dense boundary.
struct BitmaskStep {
  const glsim::RowSpanEngine& engine;
  glsim::RowSpanBuffer* spans;
  HwCounters* counters;
  obs::TraceSession* trace = nullptr;
  obs::Histogram* pixels_hist = nullptr;  // hw.pixels_colored; may be null

  // Fills `mask` (clear, res x res) with the shorter side; returns the
  // number of pixels set.
  int64_t Fill(const StepPair& pair, glsim::MaskView mask) const;
  // Probes `mask` with the other side; true at the first shared pixel.
  bool Probe(const StepPair& pair, glsim::MaskView mask) const;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_BITMASK_STEP_H_
