// Figure 12 reproduction: geometry-comparison cost of the intersection
// joins LANDC ⋈ LANDO and WATER ⋈ PRISM, software vs hardware-assisted
// test across window resolutions, sw_threshold = 0. The hw rows run the
// paper's plan (HwRouting::kStatic); the default plan sends every pair to
// the exact engine, which is the software row's work.

#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "core/join.h"

namespace hasj::bench {
namespace {

void RunJoin(const data::Dataset& a, const data::Dataset& b,
             const BenchArgs& args, const char* pair, BenchReport& report) {
  PrintDataset(a);
  PrintDataset(b);
  const core::IntersectionJoin join(a, b);

  core::JoinOptions sw_options;
  sw_options.use_hw = false;
  sw_options.num_threads = args.threads;
  report.Wire(&sw_options.hw);
  const core::JoinResult sw = join.Run(sw_options);
  std::printf("# candidates=%lld results=%lld\n",
              static_cast<long long>(sw.counts.candidates),
              static_cast<long long>(sw.counts.results));
  std::printf("%-10s %12s %10s %12s\n", "config", "compare_ms", "vs_sw",
              "hw_rejects");
  std::printf("%-10s %12.1f %10s %12s\n", "software", sw.costs.compare_ms,
              "1.00x", "-");
  report.Row(std::string(pair) + " software",
             {{"compare_ms", sw.costs.compare_ms},
              {"candidates", static_cast<double>(sw.counts.candidates)},
              {"results", static_cast<double>(sw.counts.results)}});
  for (int resolution : {1, 2, 4, 8, 16, 32}) {
    core::JoinOptions options;
    options.use_hw = true;
    options.hw.resolution = resolution;
    options.hw.sw_threshold = 0;
    options.hw.routing = core::HwRouting::kStatic;
    options.num_threads = args.threads;
    report.Wire(&options.hw);
    const core::JoinResult r = join.Run(options);
    char label[32];
    std::snprintf(label, sizeof(label), "hw %dx%d", resolution, resolution);
    std::printf("%-10s %12.1f %9.2fx %12lld\n", label, r.costs.compare_ms,
                sw.costs.compare_ms /
                    (r.costs.compare_ms > 0 ? r.costs.compare_ms : 1e-9),
                static_cast<long long>(r.hw_counters.hw_rejects));
    report.Row(
        std::string(pair) + " " + label,
        {{"compare_ms", r.costs.compare_ms},
         {"hw_tests", static_cast<double>(r.hw_counters.hw_tests)},
         {"hw_rejects", static_cast<double>(r.hw_counters.hw_rejects)},
         {"results", static_cast<double>(r.counts.results)}});
  }
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.02);
  BenchReport report("fig12_join_hw", args);
  PrintHeader(
      "Figure 12: intersection-join geometry-comparison cost, software vs "
      "hardware-assisted",
      args);
  std::printf("## LANDC join LANDO\n");
  RunJoin(Generate(data::LandcProfile(args.scale), args),
          Generate(data::LandoProfile(args.scale), args), args,
          "LANDCxLANDO", report);
  std::printf("## WATER join PRISM\n");
  RunJoin(Generate(data::WaterProfile(args.scale), args),
          Generate(data::PrismProfile(args.scale), args), args,
          "WATERxPRISM", report);
  std::printf(
      "# paper shape: 68-80%% reduction for WATER-PRISM; up to 38%% for "
      "LANDC-LANDO, which degrades below software at high resolutions.\n");
  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
