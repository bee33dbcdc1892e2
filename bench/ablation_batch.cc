// Batched tile-atlas ablation (DESIGN.md §9): geometry-comparison cost of
// the per-pair hardware step vs the batched atlas execution, on the
// intersection join WATER ⋈ PRISM and the within-distance join at several
// batch sizes. Not a paper figure — the paper renders one tiny window per
// pair — but the atlas runs the per-pair hardware step tile by tile, so
// the only thing that may change is throughput. Every batched row verifies
// its result set and every integer HwCounters field but batch.* against
// the per-pair run; the exit code is 1 on any difference.

#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "core/distance_join.h"
#include "core/join.h"

namespace hasj::bench {
namespace {

constexpr int kBatchSizes[] = {64, 256, 1024, 4096};

// Every integer HwCounters field but batch.* (the atlas pass counts).
bool SameIntegerCounters(const core::HwCounters& a,
                         const core::HwCounters& b) {
  return a.tests == b.tests && a.mbr_misses == b.mbr_misses &&
         a.pip_hits == b.pip_hits &&
         a.sw_threshold_skips == b.sw_threshold_skips &&
         a.hw_tests == b.hw_tests && a.hw_rejects == b.hw_rejects &&
         a.sw_tests == b.sw_tests && a.width_fallbacks == b.width_fallbacks &&
         a.hw_faults == b.hw_faults &&
         a.hw_fallback_pairs == b.hw_fallback_pairs &&
         a.breaker_opens == b.breaker_opens && a.fill_spans == b.fill_spans &&
         a.scan_spans == b.scan_spans &&
         a.fill_saturation_stops == b.fill_saturation_stops &&
         a.scan_hit_stops == b.scan_hit_stops;
}

bool SweepIntersection(const core::IntersectionJoin& join,
                       core::JoinOptions options, BenchReport& report) {
  options.use_hw = true;
  options.hw.use_batching = false;
  report.Wire(&options.hw);
  const core::JoinResult per_pair = join.Run(options);
  const std::string prefix =
      "isect " + std::to_string(options.hw.resolution) + "x" +
      std::to_string(options.hw.resolution) + " ";
  std::printf(
      "## intersection join, %dx%d window (candidates=%lld compared=%lld "
      "results=%lld hw_tests=%lld)\n",
      options.hw.resolution, options.hw.resolution,
      static_cast<long long>(per_pair.counts.candidates),
      static_cast<long long>(per_pair.counts.compared),
      static_cast<long long>(per_pair.counts.results),
      static_cast<long long>(per_pair.hw_counters.hw_tests));
  std::printf("%-10s %12s %10s %10s %12s %10s %10s %8s\n", "batch",
              "compare_ms", "speedup", "hw_ms", "hw_speedup", "fill_ms",
              "scan_ms", "match");
  std::printf("%-10s %12.1f %10s %10.1f %12s %10s %10s %8s\n", "per-pair",
              per_pair.costs.compare_ms, "1.00x", per_pair.hw_counters.hw_ms,
              "1.00x", "-", "-", "-");
  report.Row(prefix + "per-pair",
             {{"compare_ms", per_pair.costs.compare_ms},
              {"hw_ms", per_pair.hw_counters.hw_ms}});
  bool all_match = true;
  for (int batch_size : kBatchSizes) {
    options.hw.use_batching = true;
    options.hw.batch_size = batch_size;
    const core::JoinResult r = join.Run(options);
    const bool match = r.pairs == per_pair.pairs &&
                       SameIntegerCounters(r.hw_counters, per_pair.hw_counters);
    all_match = all_match && match;
    std::printf("%-10d %12.1f %9.2fx %10.1f %11.2fx %10.1f %10.1f %8s\n",
                batch_size, r.costs.compare_ms,
                per_pair.costs.compare_ms /
                    (r.costs.compare_ms > 0 ? r.costs.compare_ms : 1e-9),
                r.hw_counters.hw_ms,
                per_pair.hw_counters.hw_ms /
                    (r.hw_counters.hw_ms > 0 ? r.hw_counters.hw_ms : 1e-9),
                r.hw_counters.batch.fill_ms, r.hw_counters.batch.scan_ms,
                match ? "ok" : "MISMATCH");
    report.Row(prefix + "batch=" + std::to_string(batch_size),
               {{"compare_ms", r.costs.compare_ms},
                {"hw_ms", r.hw_counters.hw_ms},
                {"fill_ms", r.hw_counters.batch.fill_ms},
                {"scan_ms", r.hw_counters.batch.scan_ms},
                {"match", match ? 1.0 : 0.0}});
  }
  return all_match;
}

bool SweepDistance(const core::WithinDistanceJoin& join, double d,
                   core::DistanceJoinOptions options, BenchReport& report) {
  options.use_hw = true;
  options.hw.use_batching = false;
  report.Wire(&options.hw);
  const core::DistanceJoinResult per_pair = join.Run(d, options);
  const std::string prefix =
      "dist " + std::to_string(options.hw.resolution) + "x" +
      std::to_string(options.hw.resolution) + " ";
  std::printf(
      "## within-distance join d=%g, %dx%d window (candidates=%lld "
      "compared=%lld results=%lld hw_tests=%lld)\n",
      d, options.hw.resolution, options.hw.resolution,
      static_cast<long long>(per_pair.counts.candidates),
      static_cast<long long>(per_pair.counts.compared),
      static_cast<long long>(per_pair.counts.results),
      static_cast<long long>(per_pair.hw_counters.hw_tests));
  std::printf("%-10s %12s %10s %10s %12s %10s %10s %8s\n", "batch",
              "compare_ms", "speedup", "hw_ms", "hw_speedup", "fill_ms",
              "scan_ms", "match");
  std::printf("%-10s %12.1f %10s %10.1f %12s %10s %10s %8s\n", "per-pair",
              per_pair.costs.compare_ms, "1.00x", per_pair.hw_counters.hw_ms,
              "1.00x", "-", "-", "-");
  report.Row(prefix + "per-pair",
             {{"compare_ms", per_pair.costs.compare_ms},
              {"hw_ms", per_pair.hw_counters.hw_ms}});
  bool all_match = true;
  for (int batch_size : kBatchSizes) {
    options.hw.use_batching = true;
    options.hw.batch_size = batch_size;
    const core::DistanceJoinResult r = join.Run(d, options);
    const bool match = r.pairs == per_pair.pairs &&
                       SameIntegerCounters(r.hw_counters, per_pair.hw_counters);
    all_match = all_match && match;
    std::printf("%-10d %12.1f %9.2fx %10.1f %11.2fx %10.1f %10.1f %8s\n",
                batch_size, r.costs.compare_ms,
                per_pair.costs.compare_ms /
                    (r.costs.compare_ms > 0 ? r.costs.compare_ms : 1e-9),
                r.hw_counters.hw_ms,
                per_pair.hw_counters.hw_ms /
                    (r.hw_counters.hw_ms > 0 ? r.hw_counters.hw_ms : 1e-9),
                r.hw_counters.batch.fill_ms, r.hw_counters.batch.scan_ms,
                match ? "ok" : "MISMATCH");
    report.Row(prefix + "batch=" + std::to_string(batch_size),
               {{"compare_ms", r.costs.compare_ms},
                {"hw_ms", r.hw_counters.hw_ms},
                {"fill_ms", r.hw_counters.batch.fill_ms},
                {"scan_ms", r.hw_counters.batch.scan_ms},
                {"match", match ? 1.0 : 0.0}});
  }
  return all_match;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.05);
  BenchReport report("ablation_batch", args);
  PrintHeader("Batched tile-atlas ablation: per-pair vs atlas hardware step",
              args);

  const data::Dataset water = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset prism = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(water);
  PrintDataset(prism);

  bool all_match = true;
  const core::IntersectionJoin join(water, prism);
  for (int resolution : {8, 16, 32}) {
    core::JoinOptions options;
    options.num_threads = args.threads;
    options.hw.resolution = resolution;
    all_match = SweepIntersection(join, options, report) && all_match;
  }

  const core::WithinDistanceJoin distance_join(water, prism);
  core::DistanceJoinOptions distance_options;
  distance_options.num_threads = args.threads;
  distance_options.hw.resolution = 8;
  all_match =
      SweepDistance(distance_join, 0.01, distance_options, report) &&
      all_match;

  std::printf(
      "# expected shape: the atlas makes the per-pair step's fills and "
      "probes, so hw_speedup only measures what batching saves around them "
      "(the per-pair clear, projection setup and fault gates) and stays "
      "near 1x; compare_ms also includes Plan (the clip) and the exact "
      "software confirm of survivors, which batching does not touch; match "
      "must always be ok.\n");
  const int finish = report.Finish();
  return all_match ? finish : 1;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
