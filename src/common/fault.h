#ifndef HASJ_COMMON_FAULT_H_
#define HASJ_COMMON_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace hasj {

// Named injection sites (DESIGN.md §11 fault-site table). Every site maps
// to one operation class that can fail in a real deployment: off-screen
// buffer allocation, a render pass, reading coverage back, a thread-pool
// task body, or streaming a dataset from disk.
enum class FaultSite {
  kFramebufferAlloc = 0,  // per-pair window (re)allocation
  kRenderPass,            // drawing a boundary chain into the framebuffer
  kScanReadback,          // probing / reading coverage back from the buffer
  kPoolTask,              // a thread-pool chunk body
  kDatasetLoad,           // streaming WKT lines from disk
};
inline constexpr int kNumFaultSites = 5;

const char* FaultSiteName(FaultSite site);

// What a site does when checked. Indices below are 1-based check ordinals
// *per site*; a default-constructed plan never fires. `code` selects which
// degradation StatusCode a firing check returns.
struct FaultPlan {
  double probability = 0.0;  // independent chance per check, in [0, 1]
  int64_t every_nth = 0;     // >0: fire when ordinal % every_nth == 0
  int64_t one_shot_at = 0;   // >0: fire exactly at this ordinal
  int64_t burst_start = 0;   // >0 with burst_len: fire for ordinals in
  int64_t burst_len = 0;     //     [burst_start, burst_start + burst_len)
  StatusCode code = StatusCode::kUnavailable;

  static FaultPlan Probability(double p);
  static FaultPlan EveryNth(int64_t n);
  static FaultPlan OneShot(int64_t at);
  static FaultPlan Burst(int64_t start, int64_t len);
};

// Deterministic, seeded fault injector. Hooked into the hardware path via
// the null-pointer-gated HwConfig::faults member exactly like metrics and
// trace: when no injector is attached the per-operation cost is one pointer
// test, and glsim can never fail (DESIGN.md §11).
//
// Determinism: each Check() atomically claims the next per-site ordinal,
// and whether that ordinal fires is a pure function of (seed, site,
// ordinal) — for probability plans via a SplitMix64 hash of the triple. The
// fired/checked sequence is therefore replayable for a fixed seed; under a
// thread pool the *assignment* of ordinals to pairs varies with the
// schedule, which is exactly why correctness must never depend on which
// pairs fault (the chaos identity property, tests/chaos_fault_test.cc).
//
// Concurrency contract (DESIGN.md §13): the injector splits into plan
// state and ordinal state. Plans (SiteState::plan) are plain data written
// only by SetPlan/ResetCounts during the configure phase — SetPlan is NOT
// synchronized against concurrent Check, so configure the injector before
// handing it to a query, like the rest of HwConfig; publication to the
// query's worker threads rides the thread-pool job handoff (the pool's
// mutex orders everything written before ParallelFor against the workers).
// Ordinals (SiteState::checks/fired) are the only cross-thread mutable
// state and are atomic with explicit relaxed ordering: each counter is an
// independent tally that publishes nothing — WouldFire reads only the
// immutable seed and plan, so no acquire/release pairing is needed.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  void SetPlan(FaultSite site, const FaultPlan& plan);
  const FaultPlan& plan(FaultSite site) const;

  // Claims the next ordinal for `site` and returns the plan's error Status
  // if that ordinal fires, OK otherwise. Thread-safe.
  [[nodiscard]] Status Check(FaultSite site);

  // Would ordinal `ordinal` (1-based) fire at `site`? Pure; advances
  // nothing. Exposed so tests can predict the firing sequence.
  bool WouldFire(FaultSite site, int64_t ordinal) const;

  int64_t checks(FaultSite site) const;
  int64_t fired(FaultSite site) const;
  int64_t total_fired() const;

  // Zeroes all per-site counters/ordinals; plans and seed stay.
  void ResetCounts();

  uint64_t seed() const { return seed_; }

 private:
  // Cache-line separation keeps concurrent checks on different sites (and
  // the hot fetch_add on the same site) from false sharing.
  struct alignas(64) SiteState {
    FaultPlan plan;
    std::atomic<int64_t> checks{0};
    std::atomic<int64_t> fired{0};
  };

  uint64_t seed_;
  std::array<SiteState, kNumFaultSites> sites_;
};

// Deterministic circuit breaker for a persistently failing hardware path
// (DESIGN.md §11 state machine). All transitions are counted in hardware
// attempts and skipped pairs — never wall time — so a seeded run replays
// exactly:
//
//   closed     --[fault_threshold consecutive faults]-->  open
//   open       --[reprobe_pairs pairs routed around]-->   half-open
//   half-open  --[probe succeeds]-->                      closed
//   half-open  --[probe faults]-->                        open
//
// Not thread-safe: each per-worker hardware tester owns its own breaker,
// matching the executor's per-worker tester design.
class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker(int fault_threshold, int64_t reprobe_pairs);

  // Should the next pair attempt hardware? While open, counts the skipped
  // pair and flips to half-open (allowing this pair as the probe) once
  // reprobe_pairs pairs have been routed around.
  bool Allow();

  // Outcome of a hardware attempt that Allow() admitted.
  void RecordSuccess();
  void RecordFault();

  State state() const { return state_; }
  // Total transitions into kOpen; the "breaker opened" event count.
  int64_t opens() const { return opens_; }
  // True once after any state change; callers use it to emit the
  // transition trace instant + gauge update only when something moved.
  bool ConsumeTransition();

  static const char* StateName(State state);

 private:
  void MoveTo(State next);

  int fault_threshold_;
  int64_t reprobe_pairs_;
  State state_ = State::kClosed;
  int consecutive_faults_ = 0;
  int64_t skipped_pairs_ = 0;
  int64_t opens_ = 0;
  bool transition_pending_ = false;
};

}  // namespace hasj

#endif  // HASJ_COMMON_FAULT_H_
