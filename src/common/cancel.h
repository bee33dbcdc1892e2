#ifndef HASJ_COMMON_CANCEL_H_
#define HASJ_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>

#include "common/status.h"

namespace hasj {

// Cooperative cancellation flag. The issuer calls Cancel() from any thread;
// query code polls cancelled() at refinement-chunk boundaries (DESIGN.md
// §11) and returns its partial result with kDeadlineExceeded. Reusable
// across queries via Reset().
//
// Ordering contract (DESIGN.md §13): the flag is a pure boolean signal with
// no payload — no data is published through it, and the poll sites only
// decide "keep going or stop". memory_order_relaxed is therefore explicit
// and deliberate: a stale read costs at most one extra poll stride of work,
// which the deadline-overshoot bound already allows for.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// A query's latency budget, resolved once at pipeline entry from
// HwConfig::deadline_ms + HwConfig::cancel. Inactive (the common case) when
// neither is set: Expired() is then a single bool test. Checks are
// cooperative — the pipelines and RefinementExecutor poll at stage and
// chunk boundaries, so a long individual pair can overshoot the budget by
// one pair's worth of work, never by more.
class QueryDeadline {
 public:
  QueryDeadline() = default;  // inactive

  static QueryDeadline Start(double deadline_ms, const CancelToken* cancel) {
    QueryDeadline d;
    d.deadline_ms_ = deadline_ms;
    d.cancel_ = cancel;
    d.active_ = deadline_ms > 0.0 || cancel != nullptr;
    if (deadline_ms > 0.0) d.start_ = std::chrono::steady_clock::now();
    return d;
  }

  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] bool Expired() const {
    if (!active_) return false;
    if (cancel_ != nullptr && cancel_->cancelled()) return true;
    if (deadline_ms_ > 0.0) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      return std::chrono::duration<double, std::milli>(elapsed).count() >
             deadline_ms_;
    }
    return false;
  }

  // The status a truncated query reports. Cancellation shares the
  // kDeadlineExceeded code: both mean "budget gone, result is a prefix".
  [[nodiscard]] Status ToStatus() const {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::DeadlineExceeded("query cancelled");
    }
    return Status::DeadlineExceeded("query deadline exceeded");
  }

 private:
  std::chrono::steady_clock::time_point start_{};
  double deadline_ms_ = 0.0;
  const CancelToken* cancel_ = nullptr;
  bool active_ = false;
};

}  // namespace hasj

#endif  // HASJ_COMMON_CANCEL_H_
