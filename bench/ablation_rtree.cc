// Ablation (DESIGN.md): R-tree build strategies for the MBR-filtering
// substrate — Guttman quadratic-split insertion (DynamicRTree::Insert, the
// server's write path) and STR bulk loading (the offline pipelines) —
// compared by build time and by the number of nodes a window-query
// workload touches (the classic I/O proxy). Both builds are read through
// the one RTree class. Gate (exit 1): the two trees return the same number
// of results over the workload.

#include <cstdio>

#include "bench/harness.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "index/dynamic_rtree.h"
#include "index/rtree.h"

namespace hasj::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.1);
  BenchReport report("ablation_rtree", args);
  PrintHeader("Ablation: R-tree build strategies (WATER MBRs)", args);
  const data::Dataset water = Generate(data::WaterProfile(args.scale), args);
  PrintDataset(water);
  std::vector<index::RTree::Entry> entries;
  for (size_t i = 0; i < water.size(); ++i) {
    entries.push_back({water.mbr(i), static_cast<int64_t>(i)});
  }

  // Window-query workload: 1000 windows of ~1% extent area.
  const geom::Box extent = water.Bounds();
  Rng rng(args.seed + 17);
  std::vector<geom::Box> windows;
  const double ww = extent.Width() * 0.1, wh = extent.Height() * 0.1;
  for (int q = 0; q < 1000; ++q) {
    const double x = rng.Uniform(extent.min_x, extent.max_x - ww);
    const double y = rng.Uniform(extent.min_y, extent.max_y - wh);
    windows.emplace_back(x, y, x + ww, y + wh);
  }

  // Returns the workload's total result count.
  const auto measure = [&](const char* name, const index::RTree& tree,
                           double build_ms) {
    int64_t nodes = 0, results = 0;
    Stopwatch watch;
    for (const geom::Box& w : windows) {
      nodes += tree.NodesTouched(w);
      results += static_cast<int64_t>(tree.QueryIntersects(w).size());
    }
    const double query_ms = watch.ElapsedMillis();
    const double nodes_per_query =
        static_cast<double>(nodes) / static_cast<double>(windows.size());
    std::printf("%-22s build %8.1f ms   query %8.2f ms   nodes/query %6.1f"
                "   results %lld\n",
                name, build_ms, query_ms, nodes_per_query,
                static_cast<long long>(results));
    report.Row(name, {{"build_ms", build_ms},
                      {"query_ms", query_ms},
                      {"nodes_per_query", nodes_per_query},
                      {"results", static_cast<double>(results)}});
    return results;
  };

  int64_t inserted_results = 0;
  {
    Stopwatch watch;
    index::DynamicRTree dynamic(16);
    for (const auto& e : entries) {
      if (!dynamic.Insert(e.box, e.id).ok()) {
        std::fprintf(stderr, "insert of entry %lld failed\n",
                     static_cast<long long>(e.id));
        return 1;
      }
    }
    const index::DynamicRTree::Snapshot snap = dynamic.snapshot();
    inserted_results =
        measure("insert + quadratic", snap.tree(), watch.ElapsedMillis());
  }
  int64_t str_results = 0;
  {
    Stopwatch watch;
    auto copy = entries;
    const index::RTree tree = index::RTree::BulkLoad(std::move(copy), 16);
    str_results = measure("STR bulk load", tree, watch.ElapsedMillis());
  }
  const int finish = report.Finish();
  if (inserted_results != str_results) {
    std::fprintf(stderr, "GATE: insert-built and STR trees returned %lld "
                         "and %lld results\n",
                 static_cast<long long>(inserted_results),
                 static_cast<long long>(str_results));
    return 1;
  }
  return finish;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
