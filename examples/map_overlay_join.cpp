// Map-overlay scenario: intersect land-cover polygons with land-ownership
// polygons (the paper's LANDC ⋈ LANDO join) to find every
// (cover, ownership) pair that overlaps — the first step of a map overlay.
// Shows the hardware-assisted refinement against the software baseline.
//
//   ./build/examples/map_overlay_join [scale]

#include <cstdio>
#include <cstdlib>

#include "hasj.h"

int main(int argc, char** argv) {
  using namespace hasj;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.02;

  std::printf("generating LANDC/LANDO-like datasets (scale %.3g)...\n",
              scale);
  const data::Dataset cover = data::GenerateDataset(data::LandcProfile(scale));
  const data::Dataset owner = data::GenerateDataset(data::LandoProfile(scale));
  std::printf("  %zu cover x %zu ownership polygons\n", cover.size(),
              owner.size());

  const core::IntersectionJoin join(cover, owner);

  const core::JoinResult sw = join.Run();
  std::printf("software:  %lld candidate pairs -> %lld overlaps, "
              "compare %.1f ms\n",
              static_cast<long long>(sw.counts.candidates),
              static_cast<long long>(sw.counts.results),
              sw.costs.compare_ms);

  core::JoinOptions hw_options;
  hw_options.use_hw = true;
  hw_options.hw.resolution = 8;
  hw_options.hw.sw_threshold = 300;
  hw_options.hw.routing = core::HwRouting::kStatic;  // the paper's plan
  const core::JoinResult hw = join.Run(hw_options);
  std::printf("hardware:  %lld candidate pairs -> %lld overlaps, "
              "compare %.1f ms\n",
              static_cast<long long>(hw.counts.candidates),
              static_cast<long long>(hw.counts.results),
              hw.costs.compare_ms);
  std::printf("  hardware filter rejected %lld pairs without an exact "
              "segment test (%.0f%% of hardware tests)\n",
              static_cast<long long>(hw.hw_counters.hw_rejects),
              100.0 * static_cast<double>(hw.hw_counters.hw_rejects) /
                  static_cast<double>(hw.hw_counters.hw_tests > 0
                                          ? hw.hw_counters.hw_tests
                                          : 1));

  if (sw.counts.results != hw.counts.results) {
    std::fprintf(stderr, "result mismatch - this is a bug\n");
    return 1;
  }
  std::printf("identical result sets; sw/hw geometry-comparison ratio "
              "%.2fx (below 1.0 the simulated GPU cost exceeded its "
              "savings; see EXPERIMENTS.md)\n",
              sw.costs.compare_ms /
                  (hw.costs.compare_ms > 0 ? hw.costs.compare_ms : 1e-9));
  return 0;
}
