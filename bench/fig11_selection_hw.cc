// Figure 11 reproduction: geometry-comparison cost of intersection
// selection, software vs hardware-assisted test, as a function of the
// rendering window resolution (1x1 .. 32x32). Datasets WATER and PRISM,
// query set STATES50, sw_threshold = 0, no interior filter.

#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "core/selection.h"

namespace hasj::bench {
namespace {

void RunDataset(const data::Dataset& dataset, const data::Dataset& queries,
                BenchReport& report) {
  PrintDataset(dataset);
  const core::IntersectionSelection selection(dataset);

  const auto run = [&](core::SelectionOptions options,
                       core::HwCounters* hw_out) {
    report.Wire(&options.hw);
    double compare_ms = 0.0;
    for (const geom::Polygon& query : queries.polygons()) {
      const core::SelectionResult r = selection.Run(query, options);
      compare_ms += r.costs.compare_ms;
      if (hw_out != nullptr) {
        hw_out->hw_tests += r.hw_counters.hw_tests;
        hw_out->hw_rejects += r.hw_counters.hw_rejects;
      }
    }
    return compare_ms / static_cast<double>(queries.size());
  };

  const double sw_ms = run(core::SelectionOptions{}, nullptr);
  std::printf("%-10s %12s %10s %12s\n", "config", "compare_ms", "vs_sw",
              "hw_rejects");
  std::printf("%-10s %12.3f %10s %12s\n", "software", sw_ms, "1.00x", "-");
  report.Row(dataset.name() + " software", {{"compare_ms", sw_ms}});
  for (int resolution : {1, 2, 4, 8, 16, 32}) {
    core::SelectionOptions options;
    options.use_hw = true;
    options.hw.resolution = resolution;
    options.hw.sw_threshold = 0;
    options.hw.routing = core::HwRouting::kStatic;
    core::HwCounters counters;
    const double hw_ms = run(options, &counters);
    char label[32];
    std::snprintf(label, sizeof(label), "hw %dx%d", resolution, resolution);
    std::printf("%-10s %12.3f %9.2fx %12lld\n", label, hw_ms,
                sw_ms / (hw_ms > 0 ? hw_ms : 1e-9),
                static_cast<long long>(counters.hw_rejects));
    report.Row(dataset.name() + " " + label,
               {{"compare_ms", hw_ms},
                {"hw_tests", static_cast<double>(counters.hw_tests)},
                {"hw_rejects", static_cast<double>(counters.hw_rejects)}});
  }
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.05);
  BenchReport report("fig11_selection_hw", args);
  PrintHeader(
      "Figure 11: selection geometry-comparison cost, software vs "
      "hardware-assisted (average per STATES50 query)",
      args);
  const data::Dataset queries = Generate(data::States50Profile(args.scale), args);
  RunDataset(Generate(data::WaterProfile(args.scale), args), queries, report);
  RunDataset(Generate(data::PrismProfile(args.scale), args), queries, report);
  std::printf(
      "# paper shape: cost falls then rises with resolution; 42-56%% "
      "(WATER) and 46-64%% (PRISM) reduction, best around 16x16.\n");
  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
