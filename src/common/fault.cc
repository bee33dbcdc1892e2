#include "common/fault.h"

#include <string>

#include "common/macros.h"

namespace hasj {
namespace {

// SplitMix64 finalizer (same mixer as common/random.h uses for seeding):
// full-avalanche, so consecutive ordinals decorrelate completely.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Status MakeFaultStatus(StatusCode code, FaultSite site, int64_t ordinal) {
  std::string msg = "injected fault at ";
  msg += FaultSiteName(site);
  msg += " #";
  msg += std::to_string(ordinal);
  return Status(code, std::move(msg));
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kFramebufferAlloc:
      return "framebuffer-alloc";
    case FaultSite::kRenderPass:
      return "render-pass";
    case FaultSite::kScanReadback:
      return "scan-readback";
    case FaultSite::kPoolTask:
      return "pool-task";
    case FaultSite::kDatasetLoad:
      return "dataset-load";
  }
  return "unknown";
}

FaultPlan FaultPlan::Probability(double p) {
  FaultPlan plan;
  plan.probability = p;
  return plan;
}

FaultPlan FaultPlan::EveryNth(int64_t n) {
  FaultPlan plan;
  plan.every_nth = n;
  return plan;
}

FaultPlan FaultPlan::OneShot(int64_t at) {
  FaultPlan plan;
  plan.one_shot_at = at;
  return plan;
}

FaultPlan FaultPlan::Burst(int64_t start, int64_t len) {
  FaultPlan plan;
  plan.burst_start = start;
  plan.burst_len = len;
  return plan;
}

void FaultInjector::SetPlan(FaultSite site, const FaultPlan& plan) {
  HASJ_CHECK(plan.probability >= 0.0 && plan.probability <= 1.0);
  sites_[static_cast<int>(site)].plan = plan;
}

const FaultPlan& FaultInjector::plan(FaultSite site) const {
  return sites_[static_cast<int>(site)].plan;
}

bool FaultInjector::WouldFire(FaultSite site, int64_t ordinal) const {
  const FaultPlan& plan = sites_[static_cast<int>(site)].plan;
  if (plan.every_nth > 0 && ordinal % plan.every_nth == 0) return true;
  if (plan.one_shot_at > 0 && ordinal == plan.one_shot_at) return true;
  if (plan.burst_len > 0 && ordinal >= plan.burst_start &&
      ordinal < plan.burst_start + plan.burst_len) {
    return true;
  }
  if (plan.probability > 0.0) {
    if (plan.probability >= 1.0) return true;
    // Decision is a pure function of (seed, site, ordinal): hash to a
    // uniform in [0, 1) with 53 random bits, the full double mantissa.
    const uint64_t h = Mix64(seed_ ^ Mix64(static_cast<uint64_t>(site) * 0x632be59bd9b4e019ULL +
                                           static_cast<uint64_t>(ordinal)));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < plan.probability) return true;
  }
  return false;
}

Status FaultInjector::Check(FaultSite site) {
  SiteState& s = sites_[static_cast<int>(site)];
  const int64_t ordinal = s.checks.fetch_add(1, std::memory_order_relaxed) + 1;
  if (HASJ_PREDICT_FALSE(WouldFire(site, ordinal))) {
    s.fired.fetch_add(1, std::memory_order_relaxed);
    return MakeFaultStatus(s.plan.code, site, ordinal);
  }
  return Status::Ok();
}

int64_t FaultInjector::checks(FaultSite site) const {
  return sites_[static_cast<int>(site)].checks.load(std::memory_order_relaxed);
}

int64_t FaultInjector::fired(FaultSite site) const {
  return sites_[static_cast<int>(site)].fired.load(std::memory_order_relaxed);
}

int64_t FaultInjector::total_fired() const {
  int64_t total = 0;
  for (const SiteState& s : sites_) {
    total += s.fired.load(std::memory_order_relaxed);
  }
  return total;
}

void FaultInjector::ResetCounts() {
  for (SiteState& s : sites_) {
    s.checks.store(0, std::memory_order_relaxed);
    s.fired.store(0, std::memory_order_relaxed);
  }
}

CircuitBreaker::CircuitBreaker(int fault_threshold, int64_t reprobe_pairs)
    : fault_threshold_(fault_threshold), reprobe_pairs_(reprobe_pairs) {
  HASJ_CHECK(fault_threshold >= 1);
  HASJ_CHECK(reprobe_pairs >= 1);
}

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void CircuitBreaker::MoveTo(State next) {
  if (state_ == next) return;
  if (next == State::kOpen) ++opens_;
  state_ = next;
  transition_pending_ = true;
}

bool CircuitBreaker::Allow() {
  switch (state_) {
    case State::kClosed:
    case State::kHalfOpen:
      return true;
    case State::kOpen:
      if (++skipped_pairs_ >= reprobe_pairs_) {
        MoveTo(State::kHalfOpen);
        return true;  // this pair is the re-probe
      }
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  consecutive_faults_ = 0;
  if (state_ == State::kHalfOpen) MoveTo(State::kClosed);
}

void CircuitBreaker::RecordFault() {
  if (state_ == State::kHalfOpen) {
    skipped_pairs_ = 0;
    consecutive_faults_ = 0;
    MoveTo(State::kOpen);
    return;
  }
  if (state_ == State::kClosed && ++consecutive_faults_ >= fault_threshold_) {
    skipped_pairs_ = 0;
    consecutive_faults_ = 0;
    MoveTo(State::kOpen);
  }
}

bool CircuitBreaker::ConsumeTransition() {
  bool pending = transition_pending_;
  transition_pending_ = false;
  return pending;
}

}  // namespace hasj
