// Google-benchmark microbenchmarks for the glsim rasterizer and the
// hardware-assisted testers — the cost model that stands in for the GPU.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "data/generator.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"
#include "glsim/raster.h"
#include "glsim/voronoi.h"

namespace hasj {
namespace {

void BM_RasterizeLineAA(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  Rng rng(1);
  glsim::PixelMask mask(res, res);
  for (auto _ : state) {
    const geom::Point a{rng.Uniform(0, res), rng.Uniform(0, res)};
    const geom::Point b{rng.Uniform(0, res), rng.Uniform(0, res)};
    glsim::RasterizeLineAA(a, b, 1.4142135623730951, res, res,
                           [&](int x, int y) { mask.Set(x, y); });
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_RasterizeLineAA)->Arg(8)->Arg(16)->Arg(32);

void BM_RasterizeWideLine(benchmark::State& state) {
  const int res = 32;
  const double width = static_cast<double>(state.range(0));
  Rng rng(2);
  glsim::PixelMask mask(res, res);
  for (auto _ : state) {
    const geom::Point a{rng.Uniform(0, res), rng.Uniform(0, res)};
    const geom::Point b{rng.Uniform(0, res), rng.Uniform(0, res)};
    glsim::RasterizeLineAA(a, b, width, res, res,
                           [&](int x, int y) { mask.Set(x, y); });
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_RasterizeWideLine)->Arg(1)->Arg(4)->Arg(10);

void BM_PolygonFill(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  const geom::Polygon poly = data::GenerateBlobPolygon(
      {res / 2.0, res / 2.0}, res / 2.2, 64, 0.4, 5);
  glsim::PixelMask mask(res, res);
  for (auto _ : state) {
    glsim::RasterizePolygonFill(
        std::span<const geom::Point>(poly.vertices()), res, res,
        [&](int x, int y) { mask.Set(x, y); });
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_PolygonFill)->Arg(8)->Arg(32);

void BM_MinmaxSearch(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  glsim::ColorBuffer fb(res, res);
  fb.Set(res / 2, res / 2, glsim::Rgb{1.0f, 1.0f, 1.0f});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fb.ComputeMinMax());
  }
}
BENCHMARK(BM_MinmaxSearch)->Arg(8)->Arg(16)->Arg(32);

void BM_AccumPipeline(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  glsim::ColorBuffer fb(res, res);
  glsim::AccumBuffer accum(res, res);
  for (auto _ : state) {
    accum.Load(fb, 1.0f);
    accum.Accum(fb, 1.0f);
    accum.Return(fb, 1.0f);
    benchmark::DoNotOptimize(fb);
  }
}
BENCHMARK(BM_AccumPipeline)->Arg(8)->Arg(32);

void BM_TriangleConservative(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  Rng rng(6);
  glsim::PixelMask mask(res, res);
  for (auto _ : state) {
    const geom::Point a{rng.Uniform(0, res), rng.Uniform(0, res)};
    const geom::Point b{rng.Uniform(0, res), rng.Uniform(0, res)};
    const geom::Point c{rng.Uniform(0, res), rng.Uniform(0, res)};
    glsim::RasterizeTriangleConservative(a, b, c, res, res,
                                         [&](int x, int y) { mask.Set(x, y); });
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_TriangleConservative)->Arg(8)->Arg(32);

void BM_VoronoiRender(benchmark::State& state) {
  const int sites_n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<geom::Point> sites;
  for (int i = 0; i < sites_n; ++i) {
    sites.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        glsim::RenderVoronoi(sites, geom::Box(0, 0, 100, 100), 128));
  }
}
BENCHMARK(BM_VoronoiRender)->Arg(64)->Arg(512);

void BM_HwIntersectionTest(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  core::HwConfig config;
  config.resolution = res;
  config.backend = core::HwBackend::kBitmask;
  config.routing = core::HwRouting::kStatic;
  core::HwIntersectionTester tester(config);
  Rng rng(7);
  std::vector<geom::Polygon> polys;
  for (int i = 0; i < 64; ++i) {
    polys.push_back(data::GenerateBlobPolygon(
        {rng.Uniform(0, 6), rng.Uniform(0, 6)}, 2.0,
        static_cast<int>(rng.UniformInt(50, 400)), 0.5, rng.Next()));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tester.Test(polys[i % polys.size()], polys[(i + 1) % polys.size()]));
    ++i;
  }
}
BENCHMARK(BM_HwIntersectionTest)->Arg(1)->Arg(8)->Arg(32);

void BM_HwDistanceTest(benchmark::State& state) {
  const int res = static_cast<int>(state.range(0));
  core::HwConfig config;
  config.resolution = res;
  config.backend = core::HwBackend::kBitmask;
  core::HwDistanceTester tester(config);
  Rng rng(8);
  std::vector<geom::Polygon> polys;
  for (int i = 0; i < 64; ++i) {
    polys.push_back(data::GenerateBlobPolygon(
        {rng.Uniform(0, 10), rng.Uniform(0, 10)}, 1.5,
        static_cast<int>(rng.UniformInt(50, 400)), 0.5, rng.Next()));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tester.Test(polys[i % polys.size()],
                                         polys[(i + 1) % polys.size()], 1.0));
    ++i;
  }
}
BENCHMARK(BM_HwDistanceTest)->Arg(1)->Arg(8)->Arg(32);

}  // namespace
}  // namespace hasj

BENCHMARK_MAIN();
