#ifndef HASJ_CORE_REFINEMENT_EXECUTOR_H_
#define HASJ_CORE_REFINEMENT_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/hw_config.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace hasj::core {

// Outcome of one refinement stage: the accepted candidates in candidate
// order plus the per-worker testers' counters merged in worker order.
//
// status/attempted carry the deadline contract (DESIGN.md §11): on
// kDeadlineExceeded (budget or cancellation) or kInternal (a worker task
// failed), `accepted` holds the verdicts of the first `attempted`
// candidates only — a prefix of the full refinement in candidate order, so
// a truncated query result is a prefix of the untruncated one.
template <typename Item>
struct RefinementOutcome {
  std::vector<Item> accepted;
  HwCounters counters;
  Status status;           // Ok unless truncated
  int64_t attempted = 0;   // length of the refined candidate prefix
};

// Runs the geometry-comparison stage of a query pipeline over a candidate
// list, optionally in parallel.
//
// Each worker gets its own tester from the factory — an
// HwIntersectionTester/HwDistanceTester owns its render context, pixel
// masks, and edge scratch, so workers share nothing and need no
// locks (the paper's off-screen window simply exists once per worker).
// Workers record per-candidate verdicts into a preallocated array and a
// serial pass gathers the accepted items, so the output order is the
// candidate order and byte-identical to the serial loop at every thread
// count. Counters are merged in worker order: the integer totals are
// scheduling-independent (every candidate is tested exactly once); only
// the wall-clock fields vary run to run, as they do for the serial loop.
//
// num_threads as carried by the query options: 1 (the default) is the
// serial loop with a single tester, 0 means hardware concurrency.
class RefinementExecutor {
 public:
  explicit RefinementExecutor(int num_threads)
      : threads_(ThreadPool::ResolveThreadCount(num_threads)) {
    if (threads_ > 1) pool_.emplace(threads_);
  }

  int threads() const { return threads_; }

  // Attaches the query's trace session and metrics registry (both may be
  // null, the default): workers name their trace tracks, chunks get spans,
  // and per-worker queue wait lands in the pool.queue_wait_us histogram.
  void SetObservability(obs::TraceSession* trace, obs::Registry* metrics) {
    trace_ = trace;
    metrics_ = metrics;
  }

  // Attaches the query's resolved deadline (null = none): Refine then
  // polls it at chunk boundaries and truncates to a candidate prefix on
  // expiry. The deadline object must outlive the calls.
  void SetDeadline(const QueryDeadline* deadline) { deadline_ = deadline; }

  // Attaches the fault injector (null = none) so the kPoolTask site can
  // fail worker chunks — exercising the thread pool's exception surface
  // end-to-end (the chunk body throws, the pool catches at the chunk
  // boundary, the executor reports kInternal with a prefix result).
  void SetFaults(FaultInjector* faults) { faults_ = faults; }

  // test(tester, item) -> keep? with tester built once per worker by
  // make_tester(). Returns accepted items in input order plus merged
  // counters.
  template <typename Item, typename MakeTester, typename Test>
  RefinementOutcome<Item> Refine(const std::vector<Item>& items,
                                 MakeTester&& make_tester, Test&& test) const {
    RefinementOutcome<Item> out;
    const int64_t n = static_cast<int64_t>(items.size());
    const bool guarded = deadline_ != nullptr && deadline_->active();
    if (!pool_.has_value() || n <= 1) {
      HASJ_TRACE_SCOPE(trace_, "compare-chunk", "refine", "pairs", n);
      auto tester = make_tester();
      out.accepted.reserve(items.size());
      out.attempted = n;
      for (int64_t i = 0; i < n; ++i) {
        // kDeadlineStride amortizes the clock read; the budget can overrun
        // by at most one stride's worth of pairs.
        if (guarded && (i % kDeadlineStride) == 0 && deadline_->Expired()) {
          out.status = deadline_->ToStatus();
          out.attempted = i;
          break;
        }
        const Item& item = items[static_cast<size_t>(i)];
        if (test(tester, item)) out.accepted.push_back(item);
      }
      out.counters = tester.counters();
      return out;
    }

    using Tester = decltype(make_tester());
    std::vector<Tester> testers;
    testers.reserve(static_cast<size_t>(threads_));
    for (int w = 0; w < threads_; ++w) testers.push_back(make_tester());

    named_.assign(static_cast<size_t>(threads_), 0);
    verdict_.assign(items.size(), 0);
    tested_.assign(items.size(), 0);
    const Status pool_status = pool_->ParallelFor(
        n, Grain(n), [&](int64_t begin, int64_t end, int worker) {
          MaybeInjectPoolFault();
          if (guarded && deadline_->Expired()) return;  // skip, stays untested
          NameWorkerTrack(named_, worker);
          HASJ_TRACE_SCOPE(trace_, "compare-chunk", "refine", "pairs",
                           end - begin);
          Tester& tester = testers[static_cast<size_t>(worker)];
          for (int64_t i = begin; i < end; ++i) {
            verdict_[static_cast<size_t>(i)] =
                test(tester, items[static_cast<size_t>(i)]) ? 1 : 0;
            tested_[static_cast<size_t>(i)] = 1;
          }
        });
    RecordPoolWait();

    GatherPrefix(items, verdict_, tested_, pool_status, &out);
    for (const Tester& tester : testers) out.counters += tester.counters();
    return out;
  }

 private:
  // Serial-path deadline poll stride (pairs between clock reads).
  static constexpr int64_t kDeadlineStride = 64;

  // ~8 handouts per worker: coarse enough that the shared cursor is cold,
  // fine enough that one slow chunk cannot serialize the tail.
  int64_t Grain(int64_t n) const {
    return std::max<int64_t>(1, n / (static_cast<int64_t>(threads_) * 8));
  }

  // kPoolTask injection: a firing check fails the whole chunk by throwing,
  // which is exactly the failure mode the pool's chunk-boundary catch
  // exists for. No-op (one pointer test) without an injector.
  void MaybeInjectPoolFault() const {
    if (faults_ == nullptr) return;
    if (Status s = faults_->Check(FaultSite::kPoolTask); !s.ok()) {
      throw std::runtime_error(s.ToString());
    }
  }

  // Serial gather of the parallel paths: accepted = verdicts over the
  // fully-tested candidate prefix, in candidate order. With no truncation
  // the prefix is everything and the output is byte-identical to the
  // serial loop at every thread count; with truncation (deadline skip or a
  // failed worker task) it is a prefix of that output.
  template <typename Item>
  void GatherPrefix(const std::vector<Item>& items,
                    const std::vector<uint8_t>& verdict,
                    const std::vector<uint8_t>& tested,
                    const Status& pool_status,
                    RefinementOutcome<Item>* out) const {
    const int64_t n = static_cast<int64_t>(items.size());
    int64_t prefix = n;
    for (int64_t i = 0; i < n; ++i) {
      if (!tested[static_cast<size_t>(i)]) {
        prefix = i;
        break;
      }
    }
    out->attempted = prefix;
    out->accepted.reserve(static_cast<size_t>(prefix));
    for (int64_t i = 0; i < prefix; ++i) {
      if (verdict[static_cast<size_t>(i)]) {
        out->accepted.push_back(items[static_cast<size_t>(i)]);
      }
    }
    if (!pool_status.ok()) {
      out->status = pool_status;
    } else if (prefix < n) {
      out->status = deadline_ != nullptr ? deadline_->ToStatus()
                                         : Status::DeadlineExceeded(
                                               "refinement truncated");
    }
  }

  // Labels the calling worker's trace track on its first chunk. Safe
  // without atomics: invocations for one worker index are serial, and each
  // worker touches only its own slot.
  void NameWorkerTrack(std::vector<uint8_t>& named, int worker) const {
    if (trace_ == nullptr || named[static_cast<size_t>(worker)] != 0) return;
    named[static_cast<size_t>(worker)] = 1;
    trace_->NameCurrentTrack("refine-worker-" + std::to_string(worker));
  }

  // Feeds the last job's per-worker queue wait into the registry (worker 0
  // is the caller and never queues, so it is skipped).
  void RecordPoolWait() const {
    if (metrics_ == nullptr || !pool_.has_value()) return;
    obs::Histogram& hist = metrics_->GetHistogram(obs::kHistQueueWaitUs);
    const std::vector<double>& waits = pool_->last_wait_us();
    for (size_t w = 1; w < waits.size(); ++w) {
      hist.Record(static_cast<int64_t>(waits[w]));
    }
  }

  int threads_;
  mutable std::optional<ThreadPool> pool_;
  // Gather scratch reused across Refine calls (capacity persists; assign()
  // only rewrites contents). Mutable for the same reason as pool_: the
  // executor runs one refinement stage at a time, so the const entry
  // points may use per-executor scratch.
  mutable std::vector<uint8_t> verdict_;
  mutable std::vector<uint8_t> tested_;
  mutable std::vector<uint8_t> named_;
  obs::TraceSession* trace_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  const QueryDeadline* deadline_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_REFINEMENT_EXECUTOR_H_
