#ifndef HASJ_OBS_NAMES_H_
#define HASJ_OBS_NAMES_H_

namespace hasj::obs {

// Canonical metric names (DESIGN.md §10). Every producer and every consumer
// (core/query_obs.cc ingestion, the EXPLAIN report, bench JSON, tests) goes
// through these constants so the schema cannot drift silently.

// Pipeline runs: one counter per query kind, suffixed onto this prefix by
// core/query_obs.cc ("pipeline.selection.runs", ...).
inline constexpr char kPipelinePrefix[] = "pipeline.";
inline constexpr char kPipelineRunsSuffix[] = ".runs";

// Stage aggregates (from StageCosts / StageCounts).
inline constexpr char kStageMbrMs[] = "stage.mbr.ms";            // gauge
inline constexpr char kStageMbrOut[] = "stage.mbr.out";          // counter
inline constexpr char kStageFilterMs[] = "stage.filter.ms";      // gauge
inline constexpr char kStageFilterDecided[] = "stage.filter.decided";
inline constexpr char kStageCompareMs[] = "stage.compare.ms";    // gauge
inline constexpr char kStageCompareIn[] = "stage.compare.in";    // counter
inline constexpr char kQueryResults[] = "query.results";         // counter

// Refinement routing (from HwCounters).
inline constexpr char kRefineTests[] = "refine.tests";
inline constexpr char kRefineMbrMisses[] = "refine.mbr_misses";
inline constexpr char kRefinePipHits[] = "refine.pip_hits";
inline constexpr char kRefineSwThresholdSkips[] = "refine.sw_threshold_skips";
inline constexpr char kRefineHwTests[] = "refine.hw_tests";
inline constexpr char kRefineHwRejects[] = "refine.hw_rejects";
inline constexpr char kRefineSwTests[] = "refine.sw_tests";
inline constexpr char kRefineWidthFallbacks[] = "refine.width_fallbacks";
inline constexpr char kRefineFillSpans[] = "refine.fill_spans";
inline constexpr char kRefineScanSpans[] = "refine.scan_spans";
inline constexpr char kRefineFillSaturationStops[] =
    "refine.fill_saturation_stops";
inline constexpr char kRefineScanHitStops[] = "refine.scan_hit_stops";
inline constexpr char kRefinePipMs[] = "refine.pip_ms";  // gauge
inline constexpr char kRefineHwMs[] = "refine.hw_ms";    // gauge
inline constexpr char kRefineSwMs[] = "refine.sw_ms";    // gauge

// Distribution histograms (power-of-two buckets).
inline constexpr char kHistPairVertices[] = "refine.pair_vertices";
inline constexpr char kHistPixelsColored[] = "hw.pixels_colored";
inline constexpr char kHistQueueWaitUs[] = "pool.queue_wait_us";

// Row-span kernel backend actually running (DESIGN.md §14).
// gauge: 0 = scalar, 1 = avx2. Set once per tester at construction.
inline constexpr char kHwSimdBackend[] = "hw.simd_backend";

// Simulated-hardware primitive counts (glsim::RenderContext).
inline constexpr char kGlsimDrawSegments[] = "glsim.draw_segments";
inline constexpr char kGlsimDrawPoints[] = "glsim.draw_points";
inline constexpr char kGlsimAccumOps[] = "glsim.accum_ops";
inline constexpr char kGlsimMinmaxSearches[] = "glsim.minmax_searches";
inline constexpr char kGlsimClears[] = "glsim.clears";

// Raster-interval approximation (filter/interval_approx, DESIGN.md §12).
inline constexpr char kStageIntervalHits[] = "stage.interval.hits";
inline constexpr char kStageIntervalMisses[] = "stage.interval.misses";
inline constexpr char kStageIntervalUndecided[] = "stage.interval.undecided";
inline constexpr char kIntervalBuildMs[] = "interval.build_ms";  // gauge
inline constexpr char kIntervalObjects[] = "interval.build_objects";
inline constexpr char kIntervalUnapproximated[] =
    "interval.build_unapproximated";
inline constexpr char kIntervalIntervals[] = "interval.build_intervals";

// Per-pipeline per-stage latency histograms (microseconds per query),
// suffixed onto kPipelinePrefix + kind by core/query_obs.cc
// ("pipeline.join.filter_us", ...). Power-of-two buckets; the report's
// p50/p90/p99 columns come from HistogramSnapshot::Quantile over these.
inline constexpr char kPipelineMbrUsSuffix[] = ".mbr_us";
inline constexpr char kPipelineFilterUsSuffix[] = ".filter_us";
inline constexpr char kPipelineCompareUsSuffix[] = ".compare_us";
inline constexpr char kPipelineTotalUsSuffix[] = ".total_us";

// Hardware PMU telemetry (obs/perf_counters.h, DESIGN.md §15).
// kPmuAvailable is a 0/1 gauge: whether perf_event_open worked in this
// environment (0 in most containers/CI — the counters then stay zero).
inline constexpr char kPmuAvailable[] = "pmu.available";  // gauge
// Counters of multiplex-corrected event deltas, indexed
// [obs::PmuStage][obs::PmuEvent] — keep rows/columns in lockstep with
// those enums (4 stages x 4 events).
inline constexpr const char* kPmuStageEventNames[4][4] = {
    {"pmu.hw_fill.cycles", "pmu.hw_fill.instructions",
     "pmu.hw_fill.cache_misses", "pmu.hw_fill.branch_misses"},
    {"pmu.hw_scan.cycles", "pmu.hw_scan.instructions",
     "pmu.hw_scan.cache_misses", "pmu.hw_scan.branch_misses"},
    {"pmu.interval_decide.cycles", "pmu.interval_decide.instructions",
     "pmu.interval_decide.cache_misses", "pmu.interval_decide.branch_misses"},
    {"pmu.exact_compare.cycles", "pmu.exact_compare.instructions",
     "pmu.exact_compare.cache_misses", "pmu.exact_compare.branch_misses"},
};

// Trace drop-cap visibility: events discarded after a track hit
// TraceSession::kMaxEventsPerTrack. The session only counts internally;
// the bench harness exports the count under this name so truncated traces
// are visible in reports and JSON.
inline constexpr char kTraceDropped[] = "trace.dropped";

// Paranoid conservativeness oracle (core/paranoid.h).
inline constexpr char kParanoidChecks[] = "paranoid.checks";

// Robustness: faults, degradation, deadlines (DESIGN.md §11).
inline constexpr char kRefineHwFaults[] = "refine.hw_faults";
inline constexpr char kRefineHwFallbackPairs[] = "refine.hw_fallback_pairs";
inline constexpr char kBreakerState[] = "breaker.state";  // gauge: 0=closed,
                                                          // 1=open, 2=half
inline constexpr char kBreakerTransitions[] = "breaker.transitions";
inline constexpr char kBreakerOpens[] = "breaker.opens";
inline constexpr char kQueryDeadlineExceeded[] = "query.deadline_exceeded";
inline constexpr char kQueryTruncated[] = "query.truncated";

// Query server (core/server.h, DESIGN.md §16): bounded admission queue with
// overload shedding and a deterministic degradation ladder.
inline constexpr char kServerQueueDepth[] = "server.queue_depth";  // gauge
inline constexpr char kServerQueueDepthMax[] =
    "server.queue_depth_max";                                      // gauge
inline constexpr char kServerAdmitted[] = "server.admitted";
inline constexpr char kServerShed[] = "server.shed";
inline constexpr char kServerCompleted[] = "server.completed";
inline constexpr char kServerDegradedL2[] = "server.degraded_l2";
inline constexpr char kServerDegradedL3[] = "server.degraded_l3";
inline constexpr char kServerVerified[] = "server.verified";
inline constexpr char kServerVerifyMismatch[] = "server.verify_mismatch";
inline constexpr char kHistAdmissionWaitUs[] = "server.admission_wait_us";

}  // namespace hasj::obs

#endif  // HASJ_OBS_NAMES_H_
