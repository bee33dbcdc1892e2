// Fault-degradation ablation (DESIGN.md §11): geometry-comparison cost of
// the hardware-assisted intersection join as injected hardware faults route
// pairs to the exact software fallback. Not a paper figure — the paper
// assumes a healthy GPU — but the conservative-filter property (§3.1) makes
// skipping the hardware test always legal, so every row must produce the
// identical result set; the sweep measures what that degradation costs.
//
// Two checks gate the exit code:
//  * result-set identity at every fault rate;
//  * wiring a disabled injector (rate 0) must stay within noise of the
//    no-injector baseline — the injector off-path is one pointer test per
//    hardware step, asserted here as < 1% of refinement wall-clock (with
//    slack for timer jitter at bench scale).

#include <cstdio>
#include <string>
#include <utility>

#include "bench/harness.h"
#include "common/fault.h"
#include "core/join.h"

namespace hasj::bench {
namespace {

constexpr double kFaultRates[] = {0.0, 0.01, 0.1, 1.0};

// Repeated timed runs, keeping the fastest (least-noise) refinement time.
double BestCompareMs(const core::IntersectionJoin& join,
                     const core::JoinOptions& options, int reps,
                     core::JoinResult* out) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    core::JoinResult r = join.Run(options);
    if (rep == 0 || r.costs.compare_ms < best) best = r.costs.compare_ms;
    if (rep == 0) *out = std::move(r);
  }
  return best;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.05);
  BenchReport report("ablation_faults", args);
  PrintHeader("Fault-degradation ablation: hardware faults vs software fallback",
              args);

  const data::Dataset water = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset prism = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(water);
  PrintDataset(prism);

  const core::IntersectionJoin join(water, prism);
  core::JoinOptions options;
  options.use_hw = true;
  options.num_threads = args.threads;
  options.hw.resolution = 16;
  options.hw.routing = core::HwRouting::kStatic;
  report.Wire(&options.hw);
  options.hw.faults = nullptr;  // rows below wire their own injectors
  options.hw.deadline_ms = 0.0;
  const int reps = 3;

  // Baseline: no injector wired at all (config.faults == nullptr).
  core::JoinResult baseline;
  const double baseline_ms = BestCompareMs(join, options, reps, &baseline);
  std::printf(
      "## intersection join, 16x16 window (candidates=%lld compared=%lld "
      "results=%lld)\n",
      static_cast<long long>(baseline.counts.candidates),
      static_cast<long long>(baseline.counts.compared),
      static_cast<long long>(baseline.counts.results));
  std::printf("%-22s %12s %10s %10s %12s %14s %8s\n", "row", "compare_ms",
              "overhead", "hw_tests", "hw_faults", "fallback_pairs", "match");
  std::printf("%-22s %12.1f %10s %10lld %12s %14s %8s\n", "no-injector",
              baseline_ms, "1.00x",
              static_cast<long long>(baseline.hw_counters.hw_tests), "-", "-",
              "-");
  report.Row("no-injector", {{"compare_ms", baseline_ms}});

  bool all_ok = true;
  double disabled_ms = baseline_ms;
  for (const double rate : kFaultRates) {
    FaultInjector faults(args.seed ^ 0x9e3779b97f4a7c15ULL);
    const FaultPlan plan = FaultPlan::Probability(rate);
    faults.SetPlan(FaultSite::kFramebufferAlloc, plan);
    faults.SetPlan(FaultSite::kRenderPass, plan);
    faults.SetPlan(FaultSite::kScanReadback, plan);
    options.hw.faults = &faults;
    core::JoinResult r;
    const double ms = BestCompareMs(join, options, reps, &r);
    // The conservative-filter property: the result set never changes, no
    // matter which hardware steps fault.
    const bool match = r.pairs == baseline.pairs && r.status.ok();
    all_ok = all_ok && match;
    const std::string label = "per-pair rate=" + std::to_string(rate);
    std::printf("%-22s %12.1f %9.2fx %10lld %12lld %14lld %8s\n",
                label.c_str(), ms, ms / (baseline_ms > 0 ? baseline_ms : 1e-9),
                static_cast<long long>(r.hw_counters.hw_tests),
                static_cast<long long>(r.hw_counters.hw_faults),
                static_cast<long long>(r.hw_counters.hw_fallback_pairs),
                match ? "ok" : "MISMATCH");
    report.Row(label, {{"compare_ms", ms},
                       {"hw_tests", static_cast<double>(r.hw_counters.hw_tests)},
                       {"hw_faults", static_cast<double>(r.hw_counters.hw_faults)},
                       {"fallback_pairs",
                        static_cast<double>(r.hw_counters.hw_fallback_pairs)},
                       {"breaker_opens",
                        static_cast<double>(r.hw_counters.breaker_opens)},
                       {"match", match ? 1.0 : 0.0}});
    if (rate == 0.0) disabled_ms = ms;
    options.hw.faults = nullptr;
  }

  // Disabled-injector overhead: a wired injector whose plans never fire
  // must stay within noise of no injector at all. The hot-path cost is one
  // pointer test per hardware step; 1% of refinement wall-clock is far
  // above that, with generous slack for timer jitter at bench scale.
  const double overhead =
      baseline_ms > 0 ? (disabled_ms - baseline_ms) / baseline_ms : 0.0;
  const bool overhead_ok = overhead < 0.01 || disabled_ms - baseline_ms < 5.0;
  all_ok = all_ok && overhead_ok;
  std::printf("# disabled-injector overhead: %.2f%% (%s)\n", overhead * 100.0,
              overhead_ok ? "ok, < 1% or < 5ms" : "TOO HIGH");
  report.Row("disabled-overhead",
             {{"overhead_frac", overhead}, {"ok", overhead_ok ? 1.0 : 0.0}});

  std::printf(
      "# expected shape: compare_ms grows with the fault rate (every faulted "
      "pair pays the exact software test it would otherwise have skipped via "
      "a hardware reject); at rate=1.0 the breaker opens after the threshold "
      "and the remaining pairs skip the hardware step entirely, so the run "
      "degenerates to the software baseline plus breaker re-probes; match "
      "must always be ok.\n");
  const int finish = report.Finish();
  return all_ok ? finish : 1;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
