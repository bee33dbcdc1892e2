#ifndef HASJ_CORE_DEGRADE_H_
#define HASJ_CORE_DEGRADE_H_

#include <optional>

#include "common/fault.h"
#include "core/hw_config.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace hasj::core {

// Degradation state shared by the per-pair hardware testers (DESIGN.md
// §11): a circuit breaker over the hardware path plus the observability of
// its transitions. Instantiated per tester — the executor gives each worker
// its own tester, so no locking — and entirely inert when the config has no
// fault injector attached (glsim cannot fail then, and active() lets the
// hot path skip every breaker branch).
//
// Concurrency contract (DESIGN.md §13): HwDegrade and the CircuitBreaker
// it owns are thread-confined by construction — ownership follows the
// executor's one-tester-per-worker design, invocations for one worker are
// serial (ThreadPool contract), and the state never crosses threads, so
// there is no capability to annotate. The observability sinks it writes to
// (Gauge/Counter via relaxed atomics, TraceSession via its thread-owned
// track) are themselves safe for concurrent writers from other testers.
class HwDegrade {
 public:
  explicit HwDegrade(const HwConfig& config) : trace_(config.trace) {
    if (config.faults != nullptr) {
      breaker_.emplace(config.breaker_fault_threshold,
                       config.breaker_reprobe_pairs);
      if (config.metrics != nullptr) {
        state_gauge_ = &config.metrics->GetGauge(obs::kBreakerState);
        transitions_ = &config.metrics->GetCounter(obs::kBreakerTransitions);
      }
    }
  }

  bool active() const { return breaker_.has_value(); }

  // Is the breaker letting the next pair attempt hardware? Counts the
  // skipped pair while open and publishes any open -> half-open flip. The
  // tester's Finish routes a denied pair to the exact software decision
  // and owns the hw_fallback_pairs accounting.
  bool Allow() {
    if (!breaker_.has_value()) return true;
    const bool allowed = breaker_->Allow();
    PublishTransition();
    return allowed;
  }

  // Outcome of an admitted hardware attempt (one pair).
  void Note(bool success, HwCounters* counters) {
    if (!breaker_.has_value()) return;
    const int64_t opens_before = breaker_->opens();
    if (success) {
      breaker_->RecordSuccess();
    } else {
      breaker_->RecordFault();
    }
    counters->breaker_opens += breaker_->opens() - opens_before;
    PublishTransition();
  }

 private:
  void PublishTransition() {
    if (!breaker_->ConsumeTransition()) return;
    const CircuitBreaker::State state = breaker_->state();
    if (state_gauge_ != nullptr) {
      state_gauge_->Set(static_cast<double>(state));
    }
    if (transitions_ != nullptr) transitions_->Increment();
    if (trace_ != nullptr) {
      switch (state) {
        case CircuitBreaker::State::kClosed:
          trace_->Instant("breaker-close", "fault");
          break;
        case CircuitBreaker::State::kOpen:
          trace_->Instant("breaker-open", "fault");
          break;
        case CircuitBreaker::State::kHalfOpen:
          trace_->Instant("breaker-half-open", "fault");
          break;
      }
    }
  }

  std::optional<CircuitBreaker> breaker_;
  obs::TraceSession* trace_ = nullptr;
  obs::Gauge* state_gauge_ = nullptr;
  obs::Counter* transitions_ = nullptr;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_DEGRADE_H_
