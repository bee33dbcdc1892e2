// Ablation (paper §3): the "general strategy" — triangulate both polygons
// and render them FILLED — versus Algorithm 3.1's edge-chain rendering, on
// the same join candidates. The paper rejects the filled strategy because
// software triangulation "is far more complicated" and expensive; this
// bench measures that claim (triangulation time reported separately).

#include <cstdio>

#include "bench/harness.h"
#include "common/stopwatch.h"
#include "core/hw_filled.h"
#include "core/hw_intersection.h"
#include "index/rtree.h"

namespace hasj::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.01);
  BenchReport report("ablation_filled", args);
  PrintHeader(
      "Ablation: filled-polygon strategy (triangulate + fill) vs "
      "Algorithm 3.1 edge chains (WATER join PRISM, 8x8)",
      args);
  const data::Dataset a = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset b = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(a);
  PrintDataset(b);
  const auto candidates =
      index::JoinIntersects(a.BuildRTree(), b.BuildRTree());
  std::printf("# candidate pairs: %zu\n", candidates.size());

  core::HwConfig config;
  config.resolution = 8;
  config.routing = core::HwRouting::kStatic;
  report.Wire(&config);

  {
    core::HwIntersectionTester edges(config);
    Stopwatch watch;
    long long hits = 0;
    for (const auto& [i, j] : candidates) {
      hits += edges.Test(a.polygon(static_cast<size_t>(i)),
                         b.polygon(static_cast<size_t>(j)));
    }
    const double ms = watch.ElapsedMillis();
    std::printf(
        "edge chains (Alg. 3.1):  %8.1f ms  results=%lld rejects=%lld\n", ms,
        hits, static_cast<long long>(edges.counters().hw_rejects));
    report.Row("edge chains",
               {{"compare_ms", ms},
                {"results", static_cast<double>(hits)},
                {"hw_rejects",
                 static_cast<double>(edges.counters().hw_rejects)}});
  }
  {
    core::HwFilledIntersectionTester filled(config);
    Stopwatch watch;
    long long hits = 0;
    for (const auto& [i, j] : candidates) {
      hits += filled.Test(a.polygon(static_cast<size_t>(i)),
                          b.polygon(static_cast<size_t>(j)));
    }
    const double ms = watch.ElapsedMillis();
    std::printf(
        "filled (triangulated):   %8.1f ms  results=%lld rejects=%lld  "
        "(triangulation alone: %.1f ms)\n",
        ms, hits, static_cast<long long>(filled.counters().hw_rejects),
        filled.triangulate_ms());
    report.Row("filled",
               {{"compare_ms", ms},
                {"results", static_cast<double>(hits)},
                {"hw_rejects",
                 static_cast<double>(filled.counters().hw_rejects)},
                {"triangulate_ms", filled.triangulate_ms()}});
  }
  std::printf(
      "# paper's argument: triangulation makes the filled strategy lose to "
      "edge chains despite needing no point-in-polygon step.\n");
  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
