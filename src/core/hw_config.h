#ifndef HASJ_CORE_HW_CONFIG_H_
#define HASJ_CORE_HW_CONFIG_H_

#include <cstdint>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/simd.h"
#include "glsim/context.h"

namespace hasj::obs {
class PerfCounters;
class QueryLog;
class Registry;
class TraceSession;
}  // namespace hasj::obs

namespace hasj::core {

// How the hardware segment test is executed.
enum class HwBackend {
  // Faithful Algorithm 3.1: color buffer at (0.5, 0.5, 0.5), accumulation
  // buffer GL_LOAD / GL_ACCUM / GL_RETURN, hardware Minmax search for
  // (1, 1, 1). Demonstrates the exact paper mechanics.
  kFaithful,
  // Decision-identical fast path (the default): rasterize the first
  // boundary into a bitmask, probe it while rasterizing the second.
  kBitmask,
};

// Which intersection pairs take the hardware step (DESIGN.md §9,
// "Routing by cost"). Both modes leave enable_hw and sw_threshold their
// meaning; the distance testers ignore this knob.
enum class HwRouting {
  // The routing the measured costs give: on every workload measured (the
  // fig12 joins, the layer benchmark, the digest corpora) the hardware
  // step costs more than the exact work its rejects save, so a pair past
  // sw_threshold skips it, counts cost_skips and goes to the exact
  // run-pair engine.
  kByCost,
  // Algorithm 3.1 as the paper runs it: the hardware step on every pair
  // past sw_threshold. The paper figures and the tests and benches whose
  // subject is the hardware step pin it.
  kStatic,
};

// Configuration of the hardware-assisted tests (Algorithm 3.1 and its
// distance extension).
struct HwConfig {
  // false disables the hardware filter: the tester runs the pure software
  // refinement through the same engine (sharing its clip and scratch),
  // which is the software baseline of the figure benchmarks.
  bool enable_hw = true;
  // Rendering window is resolution x resolution pixels (paper sweeps 1-32;
  // 8x8 is the recommended balance, §5).
  int resolution = 8;
  // Skip the hardware test when the two polygons have at most this many
  // vertices combined (§4.3's sw_threshold; 0 skips no pair). Pairs past it
  // are routed by `routing`.
  int sw_threshold = 0;
  HwRouting routing = HwRouting::kByCost;
  HwBackend backend = HwBackend::kBitmask;
  // Row-span kernel backend for the bitmask path (DESIGN.md §14). The
  // backends are bit-identical by contract — identical masks, verdicts,
  // counters, and early-stop points — so this knob trades only throughput;
  // kAuto picks the widest backend the CPU supports. Explicit kAvx2 on a
  // host without AVX2 is a startup HASJ_CHECK failure (check
  // glsim::RowSpanEngine::Available first; the bench --simd flag does).
  common::SimdMode simd = common::SimdMode::kAuto;
  // Anti-aliased line width in pixels for the intersection test; the paper
  // assumes the pixel diagonal.
  double line_width = 1.4142135623730951;
  // In the faithful backend, search the color buffer with the hardware
  // Minmax function; false models the slow readback scan (§3.2 ablation).
  bool use_minmax = true;
  // Hardware limits (GeForce4-like 10-pixel maximum anti-aliased width).
  glsim::HwLimits limits;
  // Has no effect: refinement is per-pair only (DESIGN.md §9). Kept because
  // the benchmark harness still assigns it.
  bool use_batching = false;
  // Raster-interval secondary filter (filter/interval_approx, DESIGN.md
  // §12): approximate every dataset object as sorted Hilbert-cell interval
  // lists once per dataset epoch, then decide candidate pairs before
  // refinement — TRUE-HIT pairs skip the hardware testers entirely,
  // TRUE-MISS pairs are dropped, only INCONCLUSIVE pairs are refined.
  bool use_intervals = false;
  // Interval grid is 2^interval_grid_bits cells per side (1..12).
  int interval_grid_bits = 10;
  // Whole-dataset interval storage budget; objects over their share stay
  // unapproximated (always-inconclusive, never wrong).
  int64_t interval_budget_bytes = 64 << 20;
  // Observability hooks (DESIGN.md §10). Both default to null, which
  // compiles every instrumentation site down to a pointer test: tracing and
  // metrics cost nothing unless a session/registry is attached. Not owned.
  obs::TraceSession* trace = nullptr;
  obs::Registry* metrics = nullptr;
  // Hardware PMU telemetry (obs/perf_counters.h, DESIGN.md §15):
  // cycles/instructions/cache-misses/branch-misses per pipeline stage via
  // perf_event_open. Null-gated like trace/metrics; degrades to zeros when
  // the syscall is denied (pmu.available gauge says which). Not owned.
  obs::PerfCounters* pmu = nullptr;
  // Structured query log (obs/query_log.h): one JSONL record per query,
  // written asynchronously, sampled by query_log_sample (1 = every query,
  // 0 = attached but never sampled — the ablation_obs overhead
  // configuration). Null-gated and not owned, like the other sinks.
  obs::QueryLog* query_log = nullptr;
  double query_log_sample = 1.0;
  // Fault injection hook (DESIGN.md §11), null-pointer-gated exactly like
  // trace/metrics: null (the default) means glsim cannot fail and every
  // fault gate is one pointer test. With an injector attached, a glsim op
  // returning non-OK routes that pair to the exact software test — the
  // conservative filter makes the fallback free in correctness terms. Not
  // owned; configure plans before the query starts.
  FaultInjector* faults = nullptr;
  // Circuit breaker over the hardware path, active only when `faults` is
  // attached (the simulator cannot fail otherwise). Counted in pairs, not
  // wall time, so runs replay: closed -> open after
  // breaker_fault_threshold consecutive faults; open -> half-open re-probe
  // after breaker_reprobe_pairs pairs routed straight to software.
  int breaker_fault_threshold = 8;
  int64_t breaker_reprobe_pairs = 256;
  // Query latency budget in wall milliseconds (0 = none) and cooperative
  // cancellation flag (null = none). Checked at stage and refinement-chunk
  // boundaries; on expiry a pipeline returns the refined prefix of its
  // result with kDeadlineExceeded and QueryStats.counts.truncated set.
  double deadline_ms = 0.0;
  const CancelToken* cancel = nullptr;
};

// Observability into how often each path decided the outcome and where the
// time went.
struct HwCounters {
  int64_t tests = 0;             // total Test() calls
  int64_t mbr_misses = 0;        // decided by the per-pair MBR pre-check
  int64_t pip_hits = 0;          // decided by the point-in-polygon step
  int64_t sw_threshold_skips = 0;  // hardware skipped, software test direct
  int64_t hw_tests = 0;          // hardware segment tests executed
  int64_t hw_rejects = 0;        // pairs rejected by the hardware test
  int64_t sw_tests = 0;          // software segment/distance tests run
  int64_t width_fallbacks = 0;   // distance only: width limit exceeded
  int64_t hw_faults = 0;         // glsim ops that returned non-OK
  int64_t hw_fallback_pairs = 0;  // pairs routed to software by a fault
                                  // or an open breaker
  int64_t breaker_opens = 0;     // breaker transitions into kOpen
  // Intersection only. cost_skips: pairs past sw_threshold that
  // HwRouting::kByCost sent to the exact engine instead of the hardware
  // step. run_box_rejects: pairs the exact engine decided
  // "no crossing" because no two chain-run boxes meet, without a segment
  // test. Neither enters the digest corpus's verdict stream.
  int64_t cost_skips = 0;
  int64_t run_box_rejects = 0;
  // Row-span kernel work (DESIGN.md §14): non-empty row spans applied by
  // fill kernels / probed by probe kernels, and the early-stop events both
  // backends must reproduce exactly — fills cut short by a saturated
  // buffer, probes cut short by the first doubly-colored row. Every path
  // runs the one bitmask hardware step (core/bitmask_step.h): it fills the
  // side with fewer in-view edges, probes with the other, and builds spans
  // only for primitives that could change the mask or hit it (a fill whose
  // pixel box is not yet all set, a probe whose box holds a set pixel), so
  // the span counts are not per boundary; the hw.pixels_colored histogram
  // counts the filled side. Identical across simd backends (asserted by
  // tests/simd_differential_test.cc).
  int64_t fill_spans = 0;
  int64_t scan_spans = 0;
  int64_t fill_saturation_stops = 0;
  int64_t scan_hit_stops = 0;
  double pip_ms = 0.0;           // point-in-polygon step wall time
  double hw_ms = 0.0;            // hardware (rendering + search) wall time
  double sw_ms = 0.0;            // software segment/distance test wall time

  // Merges another tester's counters (the parallel refinement executor
  // sums per-worker testers in worker order). The integer totals are
  // scheduling-independent; the *_ms fields are summed per-worker wall
  // time, which exceeds the stage's elapsed time when workers overlap.
  HwCounters& operator+=(const HwCounters& o) {
    tests += o.tests;
    mbr_misses += o.mbr_misses;
    pip_hits += o.pip_hits;
    sw_threshold_skips += o.sw_threshold_skips;
    hw_tests += o.hw_tests;
    hw_rejects += o.hw_rejects;
    sw_tests += o.sw_tests;
    width_fallbacks += o.width_fallbacks;
    hw_faults += o.hw_faults;
    hw_fallback_pairs += o.hw_fallback_pairs;
    breaker_opens += o.breaker_opens;
    cost_skips += o.cost_skips;
    run_box_rejects += o.run_box_rejects;
    fill_spans += o.fill_spans;
    scan_spans += o.scan_spans;
    fill_saturation_stops += o.fill_saturation_stops;
    scan_hit_stops += o.scan_hit_stops;
    pip_ms += o.pip_ms;
    hw_ms += o.hw_ms;
    sw_ms += o.sw_ms;
    return *this;
  }
};

}  // namespace hasj::core

#endif  // HASJ_CORE_HW_CONFIG_H_
