// Ablation (DESIGN.md): software intersection-test variants on the same
// MBR-join candidate pairs — the default size-picked engine, the plane sweep
// and brute force, with and without the restricted-search-space
// optimization. The paper credits restricted search with a 30-40% practical
// improvement. Every variant is exact, so the run fails (exit 1) when any
// variant's verdict on any candidate differs from the first variant's: an
// end-to-end identity gate on the engine choice. The unrestricted variants
// test every edge and never go through the chain-box clip
// (geom::ForEachEdgeNear), so the gate also checks that the clip never
// drops a crossing edge. The run-pairs variant is the refinement engine the
// testers run (software HwIntersectionTester: the clip into chain runs and
// algo::RunPairIntersect), so the gate also checks that no two crossing
// edges sit in runs whose boxes miss each other.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "algo/polygon_intersect.h"
#include "bench/harness.h"
#include "common/stopwatch.h"
#include "core/hw_intersection.h"
#include "core/join.h"

namespace hasj::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.02);
  BenchReport report("ablation_sweep", args);
  PrintHeader("Ablation: software intersection-test variants (WATER join "
              "PRISM candidates)",
              args);
  const data::Dataset a = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset b = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(a);
  PrintDataset(b);
  const auto candidates =
      index::JoinIntersects(a.BuildRTree(), b.BuildRTree());
  std::printf("# candidate pairs: %zu\n", candidates.size());

  struct Config {
    const char* name;
    algo::SegmentEngine engine;
    bool restricted;
    bool run_pairs = false;  // the software tester instead of the engine
  };
  const Config configs[] = {
      {"by-size+restricted", algo::SegmentEngine::kBySize, true},
      {"sweep+restricted", algo::SegmentEngine::kSweep, true},
      {"sweep", algo::SegmentEngine::kSweep, false},
      {"brute+restricted", algo::SegmentEngine::kBrute, true},
      {"brute", algo::SegmentEngine::kBrute, false},
      {"run-pairs", algo::SegmentEngine::kBySize, true, true},
  };
  core::HwConfig software;
  software.enable_hw = false;
  core::HwIntersectionTester tester(software);
  std::printf("%-18s %12s %10s %10s %10s\n", "variant", "compare_ms",
              "vs_first", "results", "differ");
  double first_ms = 0.0;
  std::vector<uint8_t> first_verdicts;
  long long total_differ = 0;
  for (const Config& config : configs) {
    algo::SoftwareIntersectOptions options;
    options.engine = config.engine;
    options.restricted_search = config.restricted;
    std::vector<uint8_t> verdicts;
    verdicts.reserve(candidates.size());
    Stopwatch watch;
    for (const auto& [ia, ib] : candidates) {
      const geom::Polygon& p = a.polygon(static_cast<size_t>(ia));
      const geom::Polygon& q = b.polygon(static_cast<size_t>(ib));
      const bool hit = config.run_pairs ? tester.Test(p, q)
                                        : algo::PolygonsIntersect(p, q, options);
      verdicts.push_back(hit ? 1 : 0);
    }
    const double ms = watch.ElapsedMillis();
    if (&config == &configs[0]) {
      first_ms = ms;
      first_verdicts = verdicts;
    }
    long long results = 0;
    long long differ = 0;
    for (size_t i = 0; i < verdicts.size(); ++i) {
      results += verdicts[i];
      differ += verdicts[i] != first_verdicts[i] ? 1 : 0;
    }
    total_differ += differ;
    std::printf("%-18s %12.1f %9.2fx %10lld %10lld\n", config.name, ms,
                ms / first_ms, results, differ);
    report.Row(config.name, {{"compare_ms", ms},
                             {"results", static_cast<double>(results)},
                             {"differ", static_cast<double>(differ)}});
  }
  std::printf("# paper: restricted search buys ~30-40%% in practice.\n");
  const int exit_code = report.Finish();
  if (total_differ != 0) {
    std::printf("!! variants disagree on %lld candidate verdicts\n",
                total_differ);
    return 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
