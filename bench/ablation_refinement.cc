// Ablation (DESIGN.md): boundary-intersection refinement engines on the
// same MBR-join candidates — the paper's plane sweep, the brute pair loop,
// and the size-picked default between them.

#include <cstdio>

#include "algo/polygon_intersect.h"
#include "bench/harness.h"
#include "common/stopwatch.h"
#include "index/rtree.h"

namespace hasj::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.02);
  BenchReport report("ablation_refinement", args);
  PrintHeader("Ablation: refinement engines (WATER join PRISM candidates)",
              args);
  const data::Dataset a = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset b = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(a);
  PrintDataset(b);
  const auto candidates =
      index::JoinIntersects(a.BuildRTree(), b.BuildRTree());
  std::printf("# candidate pairs: %zu (boundary-crossing test only; no "
              "containment step)\n",
              candidates.size());
  std::printf("%-26s %12s %10s\n", "engine", "compare_ms", "crossings");

  // Plane sweep (paper's baseline), brute pair loop, and the size-picked
  // default between them.
  struct Engine {
    const char* name;
    algo::SegmentEngine engine;
  };
  for (const Engine& engine :
       {Engine{"plane sweep (restricted)", algo::SegmentEngine::kSweep},
        Engine{"brute (restricted)", algo::SegmentEngine::kBrute},
        Engine{"by size (restricted)", algo::SegmentEngine::kBySize}}) {
    algo::SoftwareIntersectOptions options;
    options.engine = engine.engine;
    Stopwatch watch;
    long long hits = 0;
    for (const auto& [ia, ib] : candidates) {
      hits += algo::BoundariesIntersect(a.polygon(static_cast<size_t>(ia)),
                                        b.polygon(static_cast<size_t>(ib)),
                                        options);
    }
    const double ms = watch.ElapsedMillis();
    std::printf("%-26s %12.1f %10lld\n", engine.name, ms, hits);
    report.Row(engine.name, {{"compare_ms", ms},
                             {"crossings", static_cast<double>(hits)}});
  }

  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
