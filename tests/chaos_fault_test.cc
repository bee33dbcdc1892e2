// Chaos suite (DESIGN.md §11): result-set identity of every pipeline under
// injected hardware faults. The hardware segment test is a conservative
// filter (paper §3.1), so skipping it — which is all a fault or an open
// breaker can cause — is always legal: at every fault rate and every thread
// count, the result set must be byte-equal to the fault-free run. Plus breaker state-machine coverage through real
// pipelines, and deadline/cancellation prefix consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/status.h"
#include "core/distance_join.h"
#include "core/distance_selection.h"
#include "core/join.h"
#include "core/selection.h"
#include "data/generator.h"
#include "data/io.h"

namespace hasj::core {
namespace {

constexpr double kChaosRates[] = {0.0, 0.01, 0.1, 1.0};

data::Dataset MakeDataset(uint64_t seed, int count, double snake_fraction) {
  data::GeneratorProfile p;
  p.name = "chaos";
  p.count = count;
  p.mean_vertices = 20;
  p.max_vertices = 90;
  p.extent = geom::Box(0, 0, 70, 70);
  p.coverage = 0.6;
  p.snake_fraction = snake_fraction;
  p.seed = seed;
  return data::GenerateDataset(p);
}

// Seed varying with the rate so different rates draw different firing
// sequences. (FaultInjector holds atomics, so it is armed in place.)
uint64_t ChaosSeed(double rate) {
  return 0xC0FFEEu ^ static_cast<uint64_t>(rate * 1e6);
}

// Arms the given probability at every hardware site.
void ArmAllHwSites(FaultInjector* faults, double rate) {
  const FaultPlan plan = FaultPlan::Probability(rate);
  faults->SetPlan(FaultSite::kFramebufferAlloc, plan);
  faults->SetPlan(FaultSite::kRenderPass, plan);
  faults->SetPlan(FaultSite::kScanReadback, plan);
}

template <typename T>
bool IsPrefix(const std::vector<T>& prefix, const std::vector<T>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

std::string CaseName(double rate, int threads) {
  return "rate=" + std::to_string(rate) + " threads=" + std::to_string(threads);
}

TEST(ChaosFaultTest, SelectionIdentityAtEveryRate) {
  const data::Dataset ds = MakeDataset(901, 110, 0.4);
  const data::Dataset queries = MakeDataset(902, 3, 0.0);
  const IntersectionSelection selection(ds);
  SelectionOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  for (size_t q = 0; q < queries.size(); ++q) {
    options.hw.faults = nullptr;
    options.num_threads = 1;
    const SelectionResult baseline = selection.Run(queries.polygon(q), options);
    ASSERT_TRUE(baseline.status.ok());
    for (const double rate : kChaosRates) {
      for (const int threads : {1, 2}) {
        FaultInjector faults(ChaosSeed(rate));
        ArmAllHwSites(&faults, rate);
        options.hw.faults = &faults;
        options.num_threads = threads;
        const SelectionResult r = selection.Run(queries.polygon(q), options);
        EXPECT_TRUE(r.status.ok()) << CaseName(rate, threads);
        EXPECT_FALSE(r.counts.truncated);
        EXPECT_EQ(r.ids, baseline.ids)
            << "query " << q << " " << CaseName(rate, threads);
        if (rate == 0.0) {
          // A wired injector whose plans never fire changes nothing.
          EXPECT_EQ(r.hw_counters.hw_faults, 0);
          EXPECT_EQ(r.hw_counters.hw_fallback_pairs, 0);
          EXPECT_EQ(r.hw_counters.hw_tests, baseline.hw_counters.hw_tests);
        }
      }
    }
  }
}

TEST(ChaosFaultTest, JoinIdentityAtEveryRate) {
  const data::Dataset a = MakeDataset(903, 90, 0.4);
  const data::Dataset b = MakeDataset(904, 70, 0.4);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  options.hw.faults = nullptr;
  const JoinResult baseline = join.Run(options);
  ASSERT_TRUE(baseline.status.ok());
  ASSERT_GT(baseline.counts.compared, 0);
  for (const double rate : kChaosRates) {
    for (const int threads : {1, 2}) {
      FaultInjector faults(ChaosSeed(rate));
      ArmAllHwSites(&faults, rate);
      options.hw.faults = &faults;
      options.num_threads = threads;
      const JoinResult r = join.Run(options);
      EXPECT_TRUE(r.status.ok()) << CaseName(rate, threads);
      EXPECT_EQ(r.pairs, baseline.pairs) << CaseName(rate, threads);
      // With sw_threshold 0 every pair past the MBR pre-check routes to
      // hardware and is resolved exactly once: by a completed hardware
      // execution or by the software fallback.
      const HwCounters& hw = r.hw_counters;
      EXPECT_EQ(hw.hw_tests + hw.hw_fallback_pairs, hw.tests - hw.mbr_misses)
          << CaseName(rate, threads);
      if (rate == 1.0) {
        // Everything the breaker admitted faulted; every hardware-routed
        // pair fell back to the exact software test.
        EXPECT_EQ(hw.hw_tests, 0) << CaseName(rate, threads);
        EXPECT_GT(hw.hw_faults, 0);
        EXPECT_GT(hw.hw_fallback_pairs, 0);
      }
    }
  }
}

TEST(ChaosFaultTest, DistanceSelectionIdentityAtEveryRate) {
  const data::Dataset ds = MakeDataset(905, 100, 0.3);
  const data::Dataset queries = MakeDataset(906, 2, 0.0);
  const double d = 2.0;
  const WithinDistanceSelection selection(ds);
  DistanceSelectionOptions options;
  options.use_hw = true;
  for (size_t q = 0; q < queries.size(); ++q) {
    options.hw.faults = nullptr;
    options.num_threads = 1;
    const DistanceSelectionResult baseline =
        selection.Run(queries.polygon(q), d, options);
    ASSERT_TRUE(baseline.status.ok());
    for (const double rate : kChaosRates) {
      for (const int threads : {1, 2}) {
        FaultInjector faults(ChaosSeed(rate));
        ArmAllHwSites(&faults, rate);
        options.hw.faults = &faults;
        options.num_threads = threads;
        const DistanceSelectionResult r =
            selection.Run(queries.polygon(q), d, options);
        EXPECT_TRUE(r.status.ok()) << CaseName(rate, threads);
        EXPECT_EQ(r.ids, baseline.ids)
            << "query " << q << " " << CaseName(rate, threads);
      }
    }
  }
}

TEST(ChaosFaultTest, DistanceJoinIdentityAtEveryRate) {
  const data::Dataset a = MakeDataset(907, 70, 0.3);
  const data::Dataset b = MakeDataset(908, 60, 0.3);
  const double d = 1.5;
  const WithinDistanceJoin join(a, b);
  DistanceJoinOptions options;
  options.use_hw = true;
  options.hw.faults = nullptr;
  const DistanceJoinResult baseline = join.Run(d, options);
  ASSERT_TRUE(baseline.status.ok());
  for (const double rate : kChaosRates) {
    for (const int threads : {1, 2}) {
      FaultInjector faults(ChaosSeed(rate));
      ArmAllHwSites(&faults, rate);
      options.hw.faults = &faults;
      options.num_threads = threads;
      const DistanceJoinResult r = join.Run(d, options);
      EXPECT_TRUE(r.status.ok()) << CaseName(rate, threads);
      EXPECT_EQ(r.pairs, baseline.pairs) << CaseName(rate, threads);
    }
  }
}

TEST(ChaosFaultTest, BreakerOpensUnderBurstAndRecovers) {
  // A burst of faults trips the breaker; once the burst passes, the
  // half-open re-probe succeeds and hardware testing resumes — visible as
  // hw_tests > 0 alongside breaker_opens >= 1. Results stay identical.
  const data::Dataset a = MakeDataset(909, 90, 0.4);
  const data::Dataset b = MakeDataset(910, 70, 0.4);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  const JoinResult baseline = join.Run(options);
  ASSERT_GT(baseline.hw_counters.hw_tests, 20);

  FaultInjector faults(0);
  faults.SetPlan(FaultSite::kRenderPass, FaultPlan::Burst(1, 4));
  options.hw.faults = &faults;
  options.hw.breaker_fault_threshold = 4;
  options.hw.breaker_reprobe_pairs = 8;
  const JoinResult r = join.Run(options);
  EXPECT_EQ(r.pairs, baseline.pairs);
  EXPECT_EQ(r.hw_counters.hw_faults, 4);
  EXPECT_EQ(r.hw_counters.breaker_opens, 1);
  // 4 faulted pairs + 7 skipped while open fell back to software (the 8th
  // routed pair is the half-open probe); the probe succeeded — burst over —
  // and everything after ran on hardware.
  EXPECT_EQ(r.hw_counters.hw_fallback_pairs, 11);
  EXPECT_EQ(r.hw_counters.hw_tests, baseline.hw_counters.hw_tests - 11);
}

TEST(ChaosFaultTest, BreakerReopensWhileFaultsPersist) {
  // probability=1.0: every admitted probe faults, so the breaker cycles
  // open -> half-open -> open for the whole run; no hardware test ever
  // completes and every hardware-routed pair falls back.
  const data::Dataset a = MakeDataset(911, 80, 0.4);
  const data::Dataset b = MakeDataset(912, 70, 0.4);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  const JoinResult baseline = join.Run(options);
  ASSERT_GT(baseline.hw_counters.hw_tests, 40);

  FaultInjector faults(ChaosSeed(1.0));
  ArmAllHwSites(&faults, 1.0);
  options.hw.faults = &faults;
  options.hw.breaker_fault_threshold = 2;
  options.hw.breaker_reprobe_pairs = 8;
  const JoinResult r = join.Run(options);
  EXPECT_EQ(r.pairs, baseline.pairs);
  EXPECT_EQ(r.hw_counters.hw_tests, 0);
  EXPECT_GT(r.hw_counters.breaker_opens, 1);  // re-opened after probes
  EXPECT_EQ(r.hw_counters.hw_fallback_pairs,
            baseline.hw_counters.hw_tests);  // every hw-routed pair fell back
}

TEST(ChaosFaultTest, PreCancelledQueryReturnsEmptyPrefix) {
  const data::Dataset ds = MakeDataset(913, 80, 0.3);
  const data::Dataset queries = MakeDataset(914, 1, 0.0);
  const IntersectionSelection selection(ds);
  SelectionOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  const SelectionResult baseline = selection.Run(queries.polygon(0), options);
  ASSERT_GT(baseline.counts.results, 0);

  CancelToken cancel;
  cancel.Cancel();
  options.hw.cancel = &cancel;
  for (const int threads : {1, 3}) {
    options.num_threads = threads;
    const SelectionResult r = selection.Run(queries.polygon(0), options);
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << threads;
    EXPECT_TRUE(r.counts.truncated);
    EXPECT_TRUE(IsPrefix(r.ids, baseline.ids));
  }
}

TEST(ChaosFaultTest, TinyDeadlineTruncatesToAPrefix) {
  const data::Dataset a = MakeDataset(915, 90, 0.4);
  const data::Dataset b = MakeDataset(916, 70, 0.4);
  const WithinDistanceJoin join(a, b);
  const double d = 1.0;
  DistanceJoinOptions options;
  options.use_hw = true;
  const DistanceJoinResult baseline = join.Run(d, options);
  ASSERT_GT(baseline.counts.results, 0);

  // A deadline far below one refinement chunk: the run truncates at the
  // first poll point it reaches; wherever that lands, the partial result
  // must be an exact prefix of the full one.
  options.hw.deadline_ms = 1e-6;
  for (const int threads : {1, 2}) {
    options.num_threads = threads;
    const DistanceJoinResult r = join.Run(d, options);
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << CaseName(0.0, threads);
    EXPECT_TRUE(r.counts.truncated);
    EXPECT_LT(r.counts.results, baseline.counts.results);
    EXPECT_TRUE(IsPrefix(r.pairs, baseline.pairs));
  }
}

TEST(ChaosFaultTest, PoolTaskFaultSurfacesAsInternalWithPrefixResult) {
  // A kPoolTask fault throws inside a worker chunk: the pool's exception
  // machinery must surface kInternal and the pipeline must still return a
  // clean candidate-order prefix.
  const data::Dataset a = MakeDataset(917, 90, 0.4);
  const data::Dataset b = MakeDataset(918, 70, 0.4);
  const IntersectionJoin join(a, b);
  JoinOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  const JoinResult baseline = join.Run(options);
  ASSERT_GT(baseline.counts.compared, 4);

  FaultInjector faults(1);
  faults.SetPlan(FaultSite::kPoolTask, FaultPlan::OneShot(2));
  options.hw.faults = &faults;
  options.num_threads = 3;
  const JoinResult r = join.Run(options);
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_NE(r.status.message().find("pool-task"), std::string::npos);
  EXPECT_TRUE(r.counts.truncated);
  EXPECT_TRUE(IsPrefix(r.pairs, baseline.pairs));
  EXPECT_LE(r.counts.compared, baseline.counts.compared);
}

TEST(ChaosFaultTest, DeadlineZeroAndNoCancelRunsToCompletion) {
  // The do-nothing configuration is the default: no deadline object
  // overhead, status Ok, truncated false.
  const data::Dataset ds = MakeDataset(919, 60, 0.3);
  const data::Dataset queries = MakeDataset(920, 1, 0.0);
  const IntersectionSelection selection(ds);
  SelectionOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  options.hw.deadline_ms = 0.0;
  options.hw.cancel = nullptr;
  const SelectionResult r = selection.Run(queries.polygon(0), options);
  EXPECT_TRUE(r.status.ok());
  EXPECT_FALSE(r.counts.truncated);
}

TEST(ChaosFaultTest, IntervalJoinIdentityUnderFaults) {
  // The interval secondary filter must keep the chaos identity: at every
  // fault rate — including dataset-load faults that degrade interval
  // builds — the join with intervals on returns exactly the pairs of the
  // intervals-off baseline. (Different FaultInjector instances per run,
  // since arming mutates the injector in place.)
  const data::Dataset a = MakeDataset(925, 90, 0.4);
  const data::Dataset b = MakeDataset(926, 70, 0.4);
  JoinOptions options;
  options.hw.routing = HwRouting::kStatic;
  options.use_hw = true;
  const JoinResult baseline = IntersectionJoin(a, b).Run(options);
  ASSERT_TRUE(baseline.status.ok());
  ASSERT_GT(baseline.counts.candidates, 0);
  // Interval hits surface in stage 2, ahead of refined pairs, so compare
  // as sets (the cross-configuration idiom of core_join_test).
  std::vector<std::pair<int64_t, int64_t>> expected = baseline.pairs;
  std::sort(expected.begin(), expected.end());

  options.hw.use_intervals = true;
  options.hw.interval_grid_bits = 8;
  for (const double rate : {0.0, 0.3, 1.0}) {
    // Fresh join per run so the interval cache rebuilds under this run's
    // injector instead of reusing a clean build.
    const IntersectionJoin join(a, b);
    FaultInjector faults(ChaosSeed(rate));
    ArmAllHwSites(&faults, rate);
    faults.SetPlan(FaultSite::kDatasetLoad, FaultPlan::Probability(rate));
    options.hw.faults = &faults;
    const JoinResult r = join.Run(options);
    ASSERT_TRUE(r.status.ok()) << CaseName(rate, 1);
    std::vector<std::pair<int64_t, int64_t>> got = r.pairs;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << CaseName(rate, 1);
    EXPECT_EQ(r.interval_hits + r.interval_misses + r.interval_undecided,
              r.counts.candidates)
        << CaseName(rate, 1);
    if (rate == 0.0) {
      EXPECT_GT(r.interval_hits + r.interval_misses, 0);
    }
  }
}

TEST(ChaosFaultTest, DatasetLoadFaultAbortsTheLoad) {
  const data::Dataset ds = MakeDataset(921, 10, 0.0);
  const std::string path = ::testing::TempDir() + "chaos_load.wkt";
  ASSERT_TRUE(data::SaveDataset(ds, path).ok());

  FaultInjector faults(1);
  faults.SetPlan(FaultSite::kDatasetLoad, FaultPlan::OneShot(4));
  data::LoadLimits limits;
  limits.faults = &faults;
  const Result<data::Dataset> loaded = data::LoadDataset(path, "chaos", limits);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(loaded.status().message().find("dataset-load"), std::string::npos);
  std::remove(path.c_str());

  // Without the injector the same file loads fully.
  ASSERT_TRUE(data::SaveDataset(ds, path).ok());
  const Result<data::Dataset> clean = data::LoadDataset(path, "chaos");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().size(), ds.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hasj::core
