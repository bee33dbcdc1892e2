// Ablation (DESIGN.md): boundary-intersection refinement engines on the
// same MBR-join candidates — the paper's plane sweep, the brute pair loop,
// the size-picked default between them, the TR*-tree-analog edge index
// (Table 1's refinement alternative, with per-polygon indexes built once
// and reused).

#include <cstdio>
#include <memory>

#include "algo/edge_index.h"
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

  // Edge indexes, built once per polygon (TR*-tree analog).
  {
    Stopwatch build_watch;
    std::vector<std::unique_ptr<algo::EdgeIndex>> ia(a.size()), ib(b.size());
    const auto indexed = [](std::vector<std::unique_ptr<algo::EdgeIndex>>& c,
                            const data::Dataset& ds,
                            int64_t id) -> const algo::EdgeIndex& {
      auto& slot = c[static_cast<size_t>(id)];
      if (slot == nullptr) {
        slot = std::make_unique<algo::EdgeIndex>(
            ds.polygon(static_cast<size_t>(id)));
      }
      return *slot;
    };
    Stopwatch watch;
    long long hits = 0;
    for (const auto& [i, j] : candidates) {
      hits += algo::EdgeIndex::BoundariesIntersect(indexed(ia, a, i),
                                                   indexed(ib, b, j));
    }
    const double ms = watch.ElapsedMillis();
    std::printf("%-26s %12.1f %10lld  (incl. lazy index builds)\n",
                "edge R-trees (cached)", ms, hits);
    report.Row("edge R-trees (cached)",
               {{"compare_ms", ms},
                {"crossings", static_cast<double>(hits)}});
  }

  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
