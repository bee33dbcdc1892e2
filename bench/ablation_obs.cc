// Observability-overhead ablation (DESIGN.md §15): what attaching the
// observability sinks costs the hardware-assisted intersection join, and
// whether each sink delivers what it promises. Not a paper figure — the
// paper reports no instrumentation cost — but the repo's observability
// contract ("null-gated sinks are free, attached sinks are cheap") needs a
// measured gate, not a comment.
//
// Four checks gate the exit code:
//  * enabled-but-unsampled overhead: metrics + trace + query log at sample
//    rate 0 must stay within noise of the all-null baseline (< 1% of run
//    wall-clock, with slack for timer jitter at bench scale);
//  * a rate-0 query log writes zero records;
//  * a rate-1 query log writes exactly one record per query, drops none;
//  * with perf_event_open available, the per-stage PMU deltas are nonzero
//    (on kernels that deny the syscall the row prints
//    [SKIPPED no-perf-events] and does not fail).

#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "core/join.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace hasj::bench {
namespace {

// Repeated timed runs, keeping the fastest (least-noise) total time.
double BestTotalMs(const core::IntersectionJoin& join,
                   const core::JoinOptions& options, int reps,
                   core::JoinResult* out) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    core::JoinResult r = join.Run(options);
    const double total = r.costs.mbr_ms + r.costs.filter_ms + r.costs.compare_ms;
    if (rep == 0 || total < best) best = total;
    if (rep == 0) *out = std::move(r);
  }
  return best;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.05);
  BenchReport report("ablation_obs", args);
  PrintHeader("Observability ablation: sink overhead, query log, PMU", args);

  const data::Dataset water = Generate(data::WaterProfile(args.scale), args);
  const data::Dataset prism = Generate(data::PrismProfile(args.scale), args);
  PrintDataset(water);
  PrintDataset(prism);

  const core::IntersectionJoin join(water, prism);
  core::JoinOptions options;
  options.use_hw = true;
  options.num_threads = args.threads;
  options.hw.resolution = 16;
  options.hw.routing = core::HwRouting::kStatic;
  report.Wire(&options.hw);
  // Rows below wire their own sinks; the measured configs start all-null.
  options.hw.metrics = nullptr;
  options.hw.trace = nullptr;
  options.hw.faults = nullptr;
  options.hw.pmu = nullptr;
  options.hw.query_log = nullptr;
  options.hw.deadline_ms = 0.0;
  const int reps = 3;
  const std::string qlog_path = "ablation_obs_query_log.jsonl";
  bool all_ok = true;

  // Baseline: every sink null — the zero-cost disabled path.
  core::JoinResult baseline;
  const double baseline_ms = BestTotalMs(join, options, reps, &baseline);
  std::printf(
      "## intersection join, 16x16 window (candidates=%lld compared=%lld "
      "results=%lld)\n",
      static_cast<long long>(baseline.counts.candidates),
      static_cast<long long>(baseline.counts.compared),
      static_cast<long long>(baseline.counts.results));
  std::printf("%-24s %12s %10s\n", "row", "total_ms", "overhead");
  std::printf("%-24s %12.1f %10s\n", "sinks-off", baseline_ms, "1.00x");
  report.Row("sinks-off", {{"total_ms", baseline_ms}});

  // Enabled but unsampled: metrics + trace + query log at rate 0. This is
  // the production posture ("instrumented, not currently recording"), so
  // it carries the <1% overhead contract.
  double enabled_ms = baseline_ms;
  {
    obs::Registry registry;
    obs::TraceSession trace_session;
    obs::QueryLog query_log;
    bool qlog_open = false;
    if (const Status s = query_log.Open(qlog_path); s.ok()) {
      qlog_open = true;
    } else {
      std::fprintf(stderr, "query log open failed: %s\n", s.message().c_str());
      all_ok = false;
    }
    options.hw.metrics = &registry;
    options.hw.trace = &trace_session;
    options.hw.query_log = qlog_open ? &query_log : nullptr;
    options.hw.query_log_sample = 0.0;
    core::JoinResult r;
    enabled_ms = BestTotalMs(join, options, reps, &r);
    const bool match = r.pairs == baseline.pairs && r.status.ok();
    all_ok = all_ok && match;
    if (qlog_open) {
      if (const Status s = query_log.Close(); !s.ok()) {
        std::fprintf(stderr, "query log close failed: %s\n",
                     s.message().c_str());
        all_ok = false;
      }
      // Rate 0 means attached-but-never-sampled: zero records by contract.
      if (query_log.written() != 0) {
        std::printf("# FAIL: rate-0 query log wrote %lld record(s)\n",
                    static_cast<long long>(query_log.written()));
        all_ok = false;
      }
    }
    options.hw.metrics = nullptr;
    options.hw.trace = nullptr;
    options.hw.query_log = nullptr;
  }
  const double overhead =
      baseline_ms > 0 ? (enabled_ms - baseline_ms) / baseline_ms : 0.0;
  const bool overhead_ok = overhead < 0.01 || enabled_ms - baseline_ms < 5.0;
  all_ok = all_ok && overhead_ok;
  std::printf("%-24s %12.1f %9.2fx\n", "metrics+trace+qlog@0", enabled_ms,
              enabled_ms / (baseline_ms > 0 ? baseline_ms : 1e-9));
  std::printf("# enabled-unsampled overhead: %.2f%% (%s)\n", overhead * 100.0,
              overhead_ok ? "ok, < 1% or < 5ms" : "TOO HIGH");
  report.Row("enabled-unsampled",
             {{"total_ms", enabled_ms},
              {"overhead_frac", overhead},
              {"ok", overhead_ok ? 1.0 : 0.0}});

  // Rate-1 query log: one record per query, none dropped.
  {
    obs::QueryLog query_log;
    const int runs = 4;
    if (const Status s = query_log.Open(qlog_path); !s.ok()) {
      std::fprintf(stderr, "query log open failed: %s\n", s.message().c_str());
      all_ok = false;
    } else {
      options.hw.query_log = &query_log;
      options.hw.query_log_sample = 1.0;
      for (int i = 0; i < runs; ++i) (void)join.Run(options);
      options.hw.query_log = nullptr;
      if (const Status s = query_log.Close(); !s.ok()) {
        std::fprintf(stderr, "query log close failed: %s\n",
                     s.message().c_str());
        all_ok = false;
      }
      const bool qlog_ok =
          query_log.written() == runs && query_log.dropped() == 0;
      all_ok = all_ok && qlog_ok;
      std::printf("# query log @ rate 1: %lld/%d records, %lld dropped (%s)\n",
                  static_cast<long long>(query_log.written()), runs,
                  static_cast<long long>(query_log.dropped()),
                  qlog_ok ? "ok" : "WRONG COUNT");
      report.Row("query-log",
                 {{"records", static_cast<double>(query_log.written())},
                  {"dropped", static_cast<double>(query_log.dropped())},
                  {"ok", qlog_ok ? 1.0 : 0.0}});
    }
  }
  std::remove(qlog_path.c_str());

  // PMU: per-stage counter deltas must be nonzero when the kernel grants
  // perf_event_open; a denial is an environment property, not a failure.
  if (obs::PerfCounters::Supported()) {
    obs::PerfCounters pmu;
    options.hw.pmu = &pmu;
    core::JoinResult r;
    const double pmu_ms = BestTotalMs(join, options, 1, &r);
    options.hw.pmu = nullptr;
    const obs::PmuSnapshot snap = pmu.Snapshot();
    const int64_t cycles = snap.total(obs::PmuEvent::kCycles);
    const int64_t instructions = snap.total(obs::PmuEvent::kInstructions);
    const bool pmu_ok = pmu.available() && cycles > 0 && instructions > 0;
    all_ok = all_ok && pmu_ok;
    std::printf("# pmu: cycles=%lld instructions=%lld over %lld scoped "
                "stage(s), total_ms=%.1f (%s)\n",
                static_cast<long long>(cycles),
                static_cast<long long>(instructions),
                static_cast<long long>(snap.scopes[0] + snap.scopes[1] +
                                       snap.scopes[2] + snap.scopes[3]),
                pmu_ms, pmu_ok ? "ok" : "ZERO DELTAS");
    report.Row("pmu", {{"cycles", static_cast<double>(cycles)},
                       {"instructions", static_cast<double>(instructions)},
                       {"ok", pmu_ok ? 1.0 : 0.0}});
  } else {
    std::printf("# pmu: [SKIPPED no-perf-events] perf_event_open denied in "
                "this environment\n");
    report.Row("pmu", {{"skipped", 1.0}});
  }

  std::printf(
      "# expected shape: attaching metrics + trace + an unsampled query log "
      "must not move total_ms beyond timer noise (the sinks are pointer-"
      "gated and the query log renders nothing at rate 0); the rate-1 log "
      "writes exactly one record per Run(); PMU deltas are nonzero wherever "
      "the kernel grants perf_event_open.\n");
  const int finish = report.Finish();
  return all_ok ? finish : 1;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
