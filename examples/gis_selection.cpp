// GIS scenario from the paper's introduction: "which water bodies
// intersect this state?" — an intersection selection over a WATER-like
// dataset with state-boundary query polygons, comparing the software-only
// pipeline against interior filtering and the hardware-assisted test.
//
//   ./build/examples/gis_selection [scale]

#include <cstdio>
#include <cstdlib>

#include "hasj.h"

int main(int argc, char** argv) {
  using namespace hasj;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.03;

  std::printf("generating WATER-like dataset (scale %.3g)...\n", scale);
  const data::Dataset water =
      data::GenerateDataset(data::WaterProfile(scale));
  const data::Dataset states =
      data::GenerateDataset(data::States50Profile(scale));
  const data::DatasetStats ws = water.Stats();
  std::printf("  %zu water polygons, %lld vertices total\n", water.size(),
              static_cast<long long>(ws.total_vertices));

  const core::IntersectionSelection selection(water);

  struct Setup {
    const char* name;
    core::SelectionOptions options;
  };
  Setup setups[3];
  setups[0].name = "software only";
  setups[1].name = "interior filter (l=4)";
  setups[1].options.interior_tiling_level = 4;
  setups[2].name = "hardware 8x8 + threshold 300";
  setups[2].options.use_hw = true;
  setups[2].options.hw.resolution = 8;
  setups[2].options.hw.sw_threshold = 300;
  setups[2].options.hw.routing = core::HwRouting::kStatic;  // the paper's plan

  std::printf("%-30s %10s %10s %10s %8s\n", "pipeline", "filter_ms",
              "compare_ms", "total_ms", "results");
  for (const Setup& setup : setups) {
    core::StageCosts costs;
    int64_t results = 0;
    for (const geom::Polygon& state : states.polygons()) {
      const core::SelectionResult r = selection.Run(state, setup.options);
      costs += r.costs;
      results += r.counts.results;
    }
    std::printf("%-30s %10.2f %10.2f %10.2f %8lld\n", setup.name,
                costs.filter_ms, costs.compare_ms, costs.total_ms(),
                static_cast<long long>(results));
  }
  std::printf("(all pipelines return identical result sets; only the cost "
              "distribution changes)\n");
  return 0;
}
