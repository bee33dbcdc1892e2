// Ablation (DESIGN.md): cost of the faithful Algorithm 3.1 execution
// (color + accumulation buffers + Minmax) vs the decision-identical
// bitmask backend, and of the hardware Minmax search vs the modeled
// readback scan (§3.2). Same join, same decisions, different mechanics.

#include <cstdio>

#include "bench/harness.h"
#include "core/join.h"

namespace hasj::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.02);
  BenchReport report("ablation_backends", args);
  PrintHeader("Ablation: hardware-test backends (WATER join PRISM, 8x8)",
              args);
  const data::Dataset a = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset b = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(a);
  PrintDataset(b);
  const core::IntersectionJoin join(a, b);

  struct Config {
    const char* name;
    core::HwBackend backend;
    bool use_minmax;
  };
  const Config configs[] = {
      {"faithful+minmax", core::HwBackend::kFaithful, true},
      {"faithful+readback", core::HwBackend::kFaithful, false},
      {"bitmask", core::HwBackend::kBitmask, true},
  };
  std::printf("%-20s %12s %12s %10s\n", "backend", "compare_ms", "hw_rejects",
              "results");
  long long reference_rejects = -1;
  for (const Config& config : configs) {
    core::JoinOptions options;
    options.use_hw = true;
    options.hw.resolution = 8;
    options.hw.routing = core::HwRouting::kStatic;
    options.hw.backend = config.backend;
    options.hw.use_minmax = config.use_minmax;
    report.Wire(&options.hw);
    const core::JoinResult r = join.Run(options);
    std::printf("%-20s %12.1f %12lld %10lld\n", config.name,
                r.costs.compare_ms,
                static_cast<long long>(r.hw_counters.hw_rejects),
                static_cast<long long>(r.counts.results));
    report.Row(config.name,
               {{"compare_ms", r.costs.compare_ms},
                {"hw_rejects", static_cast<double>(r.hw_counters.hw_rejects)},
                {"results", static_cast<double>(r.counts.results)}});
    if (reference_rejects < 0) {
      reference_rejects = r.hw_counters.hw_rejects;
    } else if (reference_rejects != r.hw_counters.hw_rejects) {
      std::printf("!! backends disagree on filtering decisions\n");
      return 1;
    }
  }
  std::printf("# all backends must report identical hw_rejects/results.\n");
  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
