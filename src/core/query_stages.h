#ifndef HASJ_CORE_QUERY_STAGES_H_
#define HASJ_CORE_QUERY_STAGES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "algo/polygon_distance.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/hw_config.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "core/paranoid.h"
#include "core/query_obs.h"
#include "core/query_stats.h"
#include "core/refinement_executor.h"
#include "data/dataset_index.h"
#include "filter/interior_filter.h"
#include "filter/interval_approx.h"
#include "filter/object_filters.h"
#include "filter/slot_interval_grid.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace hasj::core {

// The one stage skeleton behind all eight query forms (DESIGN.md §17): the
// paper's Figure 8 pipeline — MBR filter, intermediate filters, geometry
// comparison — written once, parameterised by shape and by predicate.
// IntersectionSelection, IntersectionJoin, WithinDistanceSelection,
// WithinDistanceJoin and the four Snapshot* forms are wrappers: each pins
// its source, names its candidate producer and hands over its interval
// lookup; everything per candidate happens here.
//
// Every shape presents a candidate as a pair (p, q) — the candidate and the
// query for a selection, side a and side b for a join — and that order
// reaches the testers unchanged: the hardware step breaks fill-side ties
// toward p, so the order is part of its span counters.

// Predicates.
struct IntersectsPredicate {
  static constexpr bool kDistance = false;
};
struct DistancePredicate {
  static constexpr bool kDistance = true;
  double d = 0.0;
  const algo::DistanceOptions& sw;
};

// Selection: each candidate id against one query polygon. `Source` is a
// pinned dataset or store snapshot (polygon(id)); `Intervals` its interval
// lookup (CachedIntervals or filter::SlotIntervalGrid).
template <typename Source, typename Intervals>
struct SelectionShape {
  using Item = int64_t;
  static constexpr bool kJoin = false;
  const Source& source;
  const geom::Polygon& query;
  Intervals* intervals;

  const geom::Polygon& p(int64_t id) const { return source.polygon(id); }
  const geom::Polygon& q(int64_t /*id*/) const { return query; }
};

// Join: a candidate pair drawn from two sources, (a id, b id).
template <typename Source, typename Intervals>
struct JoinShape {
  using Item = std::pair<int64_t, int64_t>;
  static constexpr bool kJoin = true;
  const Source& a;
  const Source& b;
  Intervals* intervals_a;
  Intervals* intervals_b;

  const geom::Polygon& p(const Item& c) const { return a.polygon(c.first); }
  const geom::Polygon& q(const Item& c) const { return b.polygon(c.second); }
};

// Interval lookup of the offline pipelines: the pinned dataset version's
// approximation from its IntervalApproxCache, built over `frame` on first
// use and shared across queries (keyed on the dataset epoch, so a reload
// in place rebuilds it). Same Get/Approximate calls as SlotIntervalGrid.
class CachedIntervals {
 public:
  CachedIntervals(const filter::IntervalApproxCache& cache,
                  const data::DatasetIndex::Pinned& pin,
                  const geom::Box& frame, const HwConfig& hw, int num_threads)
      : cache_(cache),
        pin_(pin),
        frame_(frame),
        hw_(hw),
        num_threads_(num_threads) {}

  [[nodiscard]] Status Acquire() {
    filter::IntervalApproxConfig config;
    config.grid_bits = hw_.interval_grid_bits;
    config.memory_budget_bytes = hw_.interval_budget_bytes;
    config.num_threads = num_threads_;
    config.faults = hw_.faults;
    config.trace = hw_.trace;
    config.metrics = hw_.metrics;
    auto acquired =
        cache_.Acquire(pin_.data.polygons(), frame_, pin_.epoch(), config);
    if (!acquired.ok()) return acquired.status();
    approx_ = std::move(acquired).value();
    return Status::Ok();
  }

  const filter::ObjectIntervals& Get(int64_t id,
                                     const geom::Polygon& /*polygon*/) const {
    return approx_->object(static_cast<size_t>(id));
  }
  filter::ObjectIntervals Approximate(const geom::Polygon& query) const {
    return approx_->ApproximateObject(query);
  }

 private:
  const filter::IntervalApproxCache& cache_;
  const data::DatasetIndex::Pinned& pin_;
  geom::Box frame_;
  const HwConfig& hw_;
  int num_threads_;
  std::shared_ptr<const filter::IntervalApprox> approx_;
};

// A store's slot grid approximates each slot on first use: nothing to
// acquire up front.
[[nodiscard]] inline Status AcquireIntervals(CachedIntervals* intervals) {
  return intervals->Acquire();
}
[[nodiscard]] inline Status AcquireIntervals(
    const filter::SlotIntervalGrid* /*grid*/) {
  return Status::Ok();
}

// What a wrapper resolves from its options before the stages run.
struct StageSetup {
  const char* kind;        // RecordQueryObs pipeline name
  const HwConfig& hw;      // the query's config: sinks, deadline, faults
  bool use_hw = false;     // the testers' enable_hw
  int num_threads = 1;     // refinement workers (0 = hardware concurrency)
  bool use_intervals = false;
  int interior_tiling_level = -1;  // intersection selections only
  bool zero_object_filter = false;  // distance forms only
  bool one_object_filter = false;
};

// Filter accepts in candidate order followed by refined accepts, with the
// stage costs, counts, tallies and tester counters that produced them.
template <typename Item>
struct StageOutcome {
  std::vector<Item> accepted;
  StageCosts costs;
  StageCounts counts;
  QueryObsTallies tallies;
  int64_t zero_object_hits = 0;
  int64_t one_object_hits = 0;
  HwCounters hw_counters;
  // Ok for a complete run; on kDeadlineExceeded / kInternal `accepted` is
  // an exact prefix of the complete result and counts.truncated is set.
  Status status;
};

// Geometry comparison: the per-pair tester, intersection or distance, one
// tester per refinement worker.
template <typename Shape, typename Predicate>
RefinementOutcome<typename Shape::Item> RefineStage(
    const RefinementExecutor& executor, const HwConfig& tester,
    const Shape& shape, const Predicate& predicate,
    const std::vector<typename Shape::Item>& items) {
  using Item = typename Shape::Item;
  if constexpr (Predicate::kDistance) {
    return executor.Refine(
        items, [&] { return HwDistanceTester(tester, predicate.sw); },
        [&](HwDistanceTester& t, const Item& item) {
          return t.Test(shape.p(item), shape.q(item), predicate.d);
        });
  } else {
    return executor.Refine(
        items, [&] { return HwIntersectionTester(tester); },
        [&](HwIntersectionTester& t, const Item& item) {
          return t.Test(shape.p(item), shape.q(item));
        });
  }
}

// Runs candidates -> object filters -> interval decide -> refine.
// `candidates()` is the MBR stage (an R-tree probe or join); it runs inside
// the mbr stage span and timer.
//
// Truncation: the decide loop polls the deadline every 64 candidates and
// stops at the first expired poll, skipping refinement; refinement polls
// at its own chunk boundaries. Either way the result is a prefix of the
// complete one.
template <typename Shape, typename Predicate, typename Candidates>
StageOutcome<typename Shape::Item> RunStages(const StageSetup& setup,
                                             const Shape& shape,
                                             const Predicate& predicate,
                                             Candidates&& candidates_of) {
  using Item = typename Shape::Item;
  const HwConfig& hw = setup.hw;
  StageOutcome<Item> out;
  QueryObsTallies& tallies = out.tallies;
  Stopwatch watch;
  const obs::PmuSnapshot pmu_begin = obs::PmuSnapshotOf(hw.pmu);
  const QueryDeadline deadline =
      QueryDeadline::Start(hw.deadline_ms, hw.cancel);
  obs::ManualSpan stage_span;

  // Stage 1: MBR filtering.
  stage_span.Start(hw.trace, "mbr", "stage");
  const std::vector<Item> candidates = candidates_of();
  out.counts.candidates = static_cast<int64_t>(candidates.size());
  out.costs.mbr_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 2: intermediate filters. Object filters first — the interior
  // filter for intersection selections, the 0/1-Object distance bounds for
  // distance forms — then the interval filter (DESIGN.md §12).
  stage_span.Start(hw.trace, "filter", "stage");
  watch.Restart();
  std::optional<filter::InteriorFilter> interior;
  if constexpr (!Shape::kJoin && !Predicate::kDistance) {
    if (setup.interior_tiling_level >= 0) {
      interior.emplace(shape.query, setup.interior_tiling_level);
    }
  }
  // Distance forms use the interval decision accept-only: a TRUE-HIT
  // intersection implies distance 0 <= d, but disjoint interval lists say
  // nothing about the gap. At d < 0 there is nothing to accept.
  bool intervals = setup.use_intervals;
  if constexpr (Predicate::kDistance) {
    intervals = intervals && predicate.d >= 0.0;
  }
  filter::ObjectIntervals query_intervals;
  if (intervals) {
    if constexpr (Shape::kJoin) {
      const Status a = AcquireIntervals(shape.intervals_a);
      const Status b = AcquireIntervals(shape.intervals_b);
      out.status = a.ok() ? b : a;
    } else {
      out.status = AcquireIntervals(shape.intervals);
      if (out.status.ok()) {
        query_intervals = shape.intervals->Approximate(shape.query);
      }
    }
  }
  const auto decide_intervals = [&](const Item& item) {
    if constexpr (Shape::kJoin) {
      return filter::DecidePair(
          shape.intervals_a->Get(item.first, shape.p(item)),
          shape.intervals_b->Get(item.second, shape.q(item)));
    } else {
      return filter::DecidePair(query_intervals,
                                shape.intervals->Get(item, shape.p(item)));
    }
  };

  // With no filter active the candidates are refined as they are.
  const bool filtering = interior.has_value() || setup.zero_object_filter ||
                         setup.one_object_filter || intervals;
  std::vector<Item> undecided;
  const std::vector<Item>* to_refine = &candidates;
  if (filtering && out.status.ok()) {
    undecided.reserve(candidates.size());
    const bool guarded = deadline.active();
    // PMU attribution for the decide loop, active only when the interval
    // filter (which dominates the loop) is; ended explicitly after the loop
    // so the compare stage is not attributed here.
    std::optional<obs::PmuScope> interval_pmu;
    if (intervals && hw.pmu != nullptr) {
      interval_pmu.emplace(hw.pmu, obs::PmuStage::kIntervalDecide, hw.trace);
    }
    const auto accept = [&](const Item& item) {
      out.accepted.push_back(item);
      ++out.counts.filter_hits;
    };
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      // Poll the budget every 64 candidates: truncating here leaves the
      // result a prefix of the filter accepts, which lead the full result.
      if (guarded && (ci % 64) == 0 && deadline.Expired()) {
        out.status = deadline.ToStatus();
        break;
      }
      const Item& item = candidates[ci];
      const geom::Polygon& p = shape.p(item);
      const geom::Polygon& q = shape.q(item);
      if constexpr (Predicate::kDistance) {
        if (setup.zero_object_filter &&
            filter::ZeroObjectUpperBound(p.Bounds(), q.Bounds()) <=
                predicate.d) {
          accept(item);
          ++out.zero_object_hits;
          continue;
        }
        if (setup.one_object_filter) {
          // A selection bounds the query polygon against the candidate's
          // MBR. A join retrieves the side with the larger MBR for the
          // tighter one-sided bound, as the paper does. OneObjectWithin
          // decides the bound <= d without computing all of it.
          const auto one_object_within = [&] {
            if constexpr (Shape::kJoin) {
              const bool p_larger = p.Bounds().Area() >= q.Bounds().Area();
              return filter::OneObjectWithin(
                  p_larger ? p : q, p_larger ? q.Bounds() : p.Bounds(),
                  predicate.d);
            } else {
              return filter::OneObjectWithin(q, p.Bounds(), predicate.d);
            }
          };
          if (one_object_within()) {
            accept(item);
            ++out.one_object_hits;
            continue;
          }
        }
      } else {
        if (interior.has_value() &&
            interior->IdentifiesPositive(p.Bounds())) {
          accept(item);
          continue;
        }
      }
      if (intervals) {
        const filter::IntervalVerdict verdict = decide_intervals(item);
        if (verdict == filter::IntervalVerdict::kHit) {
          HASJ_PARANOID_ONLY(paranoid::CheckIntervalAccept(p, q, hw));
          accept(item);
          ++tallies.interval_hits;
          continue;
        }
        if (!Predicate::kDistance &&
            verdict == filter::IntervalVerdict::kMiss) {
          HASJ_PARANOID_ONLY(paranoid::CheckIntervalReject(p, q, hw));
          ++tallies.interval_misses;
          ++out.counts.filter_hits;
          continue;
        }
        ++tallies.interval_undecided;
      }
      undecided.push_back(item);
    }
    interval_pmu.reset();
    to_refine = &undecided;
  }
  out.costs.filter_ms = watch.ElapsedMillis();
  stage_span.End();

  // Stage 3: geometry comparison. The tester is the refinement engine with
  // and without the hardware filter, so the software baseline shares its
  // clip and scratch; accepted items come back in candidate order at every
  // thread count.
  stage_span.Start(hw.trace, "compare", "stage");
  watch.Restart();
  RefinementExecutor executor(setup.num_threads);
  executor.SetObservability(hw.trace, hw.metrics);
  executor.SetDeadline(&deadline);
  executor.SetFaults(hw.faults);
  if (out.status.ok()) {
    HwConfig tester = hw;
    tester.enable_hw = setup.use_hw;
    RefinementOutcome<Item> refined =
        RefineStage(executor, tester, shape, predicate, *to_refine);
    out.counts.compared += refined.attempted;
    out.accepted.insert(out.accepted.end(), refined.accepted.begin(),
                        refined.accepted.end());
    out.hw_counters = refined.counters;
    out.status = refined.status;
  }
  out.costs.compare_ms = watch.ElapsedMillis();
  stage_span.End();
  out.counts.truncated = !out.status.ok();
  out.counts.results = static_cast<int64_t>(out.accepted.size());
  RecordQueryObs(hw, setup.kind, out.costs, out.counts, out.hw_counters,
                 tallies, pmu_begin);
  return out;
}

}  // namespace hasj::core

#endif  // HASJ_CORE_QUERY_STAGES_H_
