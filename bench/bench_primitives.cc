// Google-benchmark microbenchmarks for the geometric primitives and the
// software refinement algorithms the query pipelines are built from.

#include <benchmark/benchmark.h>

#include <vector>

#include "algo/point_in_polygon.h"
#include "algo/polygon_distance.h"
#include "algo/polygon_intersect.h"
#include "algo/segment_tests.h"
#include "common/random.h"
#include "data/generator.h"
#include "geom/predicates.h"
#include "index/rtree.h"

namespace hasj {
namespace {

void BM_Orient2dFastPath(benchmark::State& state) {
  Rng rng(1);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({rng.Uniform(-100, 100), rng.Uniform(-100, 100)});
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = pts[i % pts.size()];
    const auto& b = pts[(i + 1) % pts.size()];
    const auto& c = pts[(i + 2) % pts.size()];
    benchmark::DoNotOptimize(geom::Orient2d(a, b, c));
    ++i;
  }
}
BENCHMARK(BM_Orient2dFastPath);

void BM_Orient2dExactPath(benchmark::State& state) {
  // Collinear triples force the expansion-arithmetic fallback.
  const geom::Point a{0.1, 0.1}, b{0.7, 0.7}, c{0.3, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::Orient2d(a, b, c));
  }
}
BENCHMARK(BM_Orient2dExactPath);

void BM_SegmentsIntersect(benchmark::State& state) {
  Rng rng(2);
  std::vector<geom::Segment> segs;
  for (int i = 0; i < 2000; ++i) {
    segs.push_back({{rng.Uniform(0, 10), rng.Uniform(0, 10)},
                    {rng.Uniform(0, 10), rng.Uniform(0, 10)}});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geom::SegmentsIntersect(segs[i % segs.size()],
                                segs[(i + 7) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_SegmentsIntersect);

void BM_PointInPolygon(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const geom::Polygon poly = data::GenerateBlobPolygon({0, 0}, 10, n, 0.5, 3);
  Rng rng(4);
  for (auto _ : state) {
    const geom::Point p{rng.Uniform(-12, 12), rng.Uniform(-12, 12)};
    benchmark::DoNotOptimize(algo::LocatePoint(p, poly));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PointInPolygon)->Range(16, 4096)->Complexity(benchmark::oN);

void BM_SweepRedBlue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const geom::Polygon a = data::GenerateBlobPolygon({0, 0}, 10, n, 0.5, 5);
  const geom::Polygon b = data::GenerateBlobPolygon({4, 4}, 10, n, 0.5, 6);
  std::vector<geom::Segment> ea, eb;
  for (size_t i = 0; i < a.size(); ++i) ea.push_back(a.edge(i));
  for (size_t i = 0; i < b.size(); ++i) eb.push_back(b.edge(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::SweepRedBlueIntersect(ea, eb));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SweepRedBlue)->Range(16, 4096)->Complexity(benchmark::oNLogN);

void BM_BruteRedBlue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const geom::Polygon a = data::GenerateBlobPolygon({0, 0}, 10, n, 0.5, 5);
  const geom::Polygon b = data::GenerateBlobPolygon({4, 4}, 10, n, 0.5, 6);
  std::vector<geom::Segment> ea, eb;
  for (size_t i = 0; i < a.size(); ++i) ea.push_back(a.edge(i));
  for (size_t i = 0; i < b.size(); ++i) eb.push_back(b.edge(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::BruteRedBlueIntersect(ea, eb));
  }
}
BENCHMARK(BM_BruteRedBlue)->Range(16, 1024);

void BM_PolygonsIntersect(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<geom::Polygon> polys;
  for (int i = 0; i < 32; ++i) {
    polys.push_back(data::GenerateBlobPolygon(
        {rng.Uniform(0, 5), rng.Uniform(0, 5)}, 3, n, 0.5, rng.Next()));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PolygonsIntersect(
        polys[i % polys.size()], polys[(i + 1) % polys.size()]));
    ++i;
  }
}
BENCHMARK(BM_PolygonsIntersect)->Range(16, 2048);

void BM_WithinDistance(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const geom::Polygon a = data::GenerateBlobPolygon({0, 0}, 3, n, 0.5, 8);
  const geom::Polygon b = data::GenerateBlobPolygon({8, 0}, 3, n, 0.5, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::WithinDistance(a, b, 2.5));
  }
}
BENCHMARK(BM_WithinDistance)->Range(16, 1024);

// Polygon construction from a vertex vector (bounds and, above 32 edges,
// chain boxes), reported per vertex.
void BM_PolygonConstruct(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const geom::Polygon poly = data::GenerateBlobPolygon({0, 0}, 10, n, 0.5, 3);
  const std::vector<geom::Point> ring(poly.vertices().begin(),
                                      poly.vertices().end());
  for (auto _ : state) {
    geom::Polygon built{std::vector<geom::Point>(ring)};
    benchmark::DoNotOptimize(built);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PolygonConstruct)->Range(16, 4096);

void BM_RTreeBulkLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  std::vector<index::RTree::Entry> entries;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    entries.push_back({geom::Box(x, y, x + 5, y + 5), i});
  }
  for (auto _ : state) {
    auto copy = entries;
    benchmark::DoNotOptimize(index::RTree::BulkLoad(std::move(copy)));
  }
}
BENCHMARK(BM_RTreeBulkLoad)->Range(1024, 65536);

void BM_RTreeQuery(benchmark::State& state) {
  Rng rng(11);
  std::vector<index::RTree::Entry> entries;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    entries.push_back({geom::Box(x, y, x + 5, y + 5), i});
  }
  const index::RTree tree = index::RTree::BulkLoad(std::move(entries));
  for (auto _ : state) {
    const double x = rng.Uniform(0, 950), y = rng.Uniform(0, 950);
    benchmark::DoNotOptimize(
        tree.QueryIntersects(geom::Box(x, y, x + 50, y + 50)));
  }
}
BENCHMARK(BM_RTreeQuery);

}  // namespace
}  // namespace hasj

BENCHMARK_MAIN();
