// Thread-scaling ablation: geometry-comparison cost of WATER ⋈ PRISM as
// the refinement-stage worker count grows. Not a paper figure — the paper
// assumes one off-screen rendering window — but the per-thread-tester
// executor (core/refinement_executor.h) gives each worker its own window,
// so compare_ms should scale near-linearly until the core count or the
// memory bus saturates. Results are verified identical across thread
// counts on every row.

#include <cstdio>
#include <string>
#include <thread>

#include "bench/harness.h"
#include "core/join.h"

namespace hasj::bench {
namespace {

void RunSweep(const core::IntersectionJoin& join, core::JoinOptions options,
              const char* label, const char* series, BenchReport& report) {
  report.Wire(&options.hw);
  options.num_threads = 1;
  const core::JoinResult serial = join.Run(options);
  std::printf("## %s (candidates=%lld compared=%lld results=%lld)\n", label,
              static_cast<long long>(serial.counts.candidates),
              static_cast<long long>(serial.counts.compared),
              static_cast<long long>(serial.counts.results));
  std::printf("%-8s %12s %10s %8s\n", "threads", "compare_ms", "speedup",
              "match");
  std::printf("%-8d %12.1f %10s %8s\n", 1, serial.costs.compare_ms, "1.00x",
              "-");
  report.Row(std::string(series) + " threads=1",
             {{"compare_ms", serial.costs.compare_ms},
              {"results", static_cast<double>(serial.counts.results)}});
  for (int threads : {2, 4, 8}) {
    options.num_threads = threads;
    const core::JoinResult r = join.Run(options);
    const bool match = r.pairs == serial.pairs &&
                       r.hw_counters.hw_rejects == serial.hw_counters.hw_rejects;
    std::printf("%-8d %12.1f %9.2fx %8s\n", threads, r.costs.compare_ms,
                serial.costs.compare_ms /
                    (r.costs.compare_ms > 0 ? r.costs.compare_ms : 1e-9),
                match ? "ok" : "MISMATCH");
    report.Row(std::string(series) + " threads=" + std::to_string(threads),
               {{"compare_ms", r.costs.compare_ms},
                {"match", match ? 1.0 : 0.0}});
  }
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.02);
  BenchReport report("ablation_threads", args);
  PrintHeader("Thread-scaling ablation: parallel refinement executor", args);
  std::printf("# hardware_concurrency=%u\n",
              std::thread::hardware_concurrency());

  const data::Dataset water = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset prism = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(water);
  PrintDataset(prism);
  const core::IntersectionJoin join(water, prism);

  core::JoinOptions sw;
  sw.use_hw = false;
  RunSweep(join, sw, "software refinement", "sw", report);

  core::JoinOptions hw;
  hw.use_hw = true;
  hw.hw.resolution = 8;
  hw.hw.routing = core::HwRouting::kStatic;  // the match column compares
                                             // hw_rejects
  RunSweep(join, hw, "hardware-assisted refinement, 8x8 window", "hw", report);

  std::printf(
      "# expected shape: near-linear compare_ms speedup up to the physical "
      "core count; flat on a single-core host.\n");
  return report.Finish();
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
