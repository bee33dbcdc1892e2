// Ablation (DESIGN.md): software intersection-test variants on the same
// MBR-join candidate pairs — the default size-picked engine, the plane sweep
// and brute force, with and without the restricted-search-space
// optimization. The paper credits restricted search with a 30-40% practical
// improvement. Every variant is exact, so the run fails (exit 1) when their
// result counts differ: an end-to-end identity gate on the engine choice.

#include <cstdio>

#include "algo/polygon_intersect.h"
#include "bench/harness.h"
#include "common/stopwatch.h"
#include "core/join.h"

namespace hasj::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.02);
  BenchReport report("ablation_sweep", args);
  PrintHeader("Ablation: software intersection-test variants (WATER join "
              "PRISM candidates)",
              args);
  const data::Dataset a = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset b = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(a);
  PrintDataset(b);
  const auto candidates =
      index::JoinIntersects(a.BuildRTree(), b.BuildRTree());
  std::printf("# candidate pairs: %zu\n", candidates.size());

  struct Config {
    const char* name;
    algo::SegmentEngine engine;
    bool restricted;
  };
  const Config configs[] = {
      {"by-size+restricted", algo::SegmentEngine::kBySize, true},
      {"sweep+restricted", algo::SegmentEngine::kSweep, true},
      {"sweep", algo::SegmentEngine::kSweep, false},
      {"brute+restricted", algo::SegmentEngine::kBrute, true},
      {"brute", algo::SegmentEngine::kBrute, false},
  };
  std::printf("%-18s %12s %10s %10s\n", "variant", "compare_ms", "vs_first",
              "results");
  double first_ms = 0.0;
  long long first_results = -1;
  bool identical = true;
  for (const Config& config : configs) {
    algo::SoftwareIntersectOptions options;
    options.engine = config.engine;
    options.restricted_search = config.restricted;
    Stopwatch watch;
    long long results = 0;
    for (const auto& [ia, ib] : candidates) {
      results += algo::PolygonsIntersect(a.polygon(static_cast<size_t>(ia)),
                                         b.polygon(static_cast<size_t>(ib)),
                                         options);
    }
    const double ms = watch.ElapsedMillis();
    if (first_results < 0) {
      first_ms = ms;
      first_results = results;
    }
    identical = identical && results == first_results;
    std::printf("%-18s %12.1f %9.2fx %10lld\n", config.name, ms,
                ms / first_ms, results);
    report.Row(config.name, {{"compare_ms", ms},
                             {"results", static_cast<double>(results)}});
  }
  std::printf("# paper: restricted search buys ~30-40%% in practice.\n");
  const int exit_code = report.Finish();
  if (!identical) {
    std::printf("!! variants disagree on results\n");
    return 1;
  }
  return exit_code;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
