#include "core/query_obs.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/simd.h"
#include "obs/json.h"
#include "obs/names.h"
#include "obs/query_log.h"

namespace hasj::core {

namespace {

int64_t ToMicros(double ms) {
  return static_cast<int64_t>(std::llround(ms * 1000.0));
}

// One query-log JSONL record (schema_version 3; DESIGN.md §15 documents
// the schema, scripts/validate_bench_json.py --query-log validates it).
void RenderQueryLogRecord(std::string* out, const HwConfig& config,
                          const char* kind, const StageCosts& costs,
                          const StageCounts& counts, const HwCounters& hw,
                          const QueryObsTallies& tallies,
                          const obs::PmuSnapshot& pmu_delta) {
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("schema_version");
  w.Int(3);
  w.Key("kind");
  w.String(kind);

  // Config fingerprint: every knob that changes routing or throughput, so
  // longitudinal analysis can group records by configuration.
  w.Key("config");
  w.BeginObject();
  w.Key("enable_hw");
  w.Bool(config.enable_hw);
  w.Key("backend");
  w.String(config.backend == HwBackend::kBitmask ? "bitmask" : "faithful");
  w.Key("resolution");
  w.Int(config.resolution);
  w.Key("sw_threshold");
  w.Int(config.sw_threshold);
  w.Key("simd");
  w.String(common::SimdModeName(config.simd));
  w.Key("use_intervals");
  w.Bool(config.use_intervals);
  w.Key("interval_grid_bits");
  w.Int(config.interval_grid_bits);
  w.Key("deadline_ms");
  w.Double(config.deadline_ms);
  w.Key("faults");
  w.Bool(config.faults != nullptr);
  w.EndObject();

  w.Key("costs");
  w.BeginObject();
  w.Key("mbr_ms");
  w.Double(costs.mbr_ms);
  w.Key("filter_ms");
  w.Double(costs.filter_ms);
  w.Key("compare_ms");
  w.Double(costs.compare_ms);
  w.Key("total_ms");
  w.Double(costs.mbr_ms + costs.filter_ms + costs.compare_ms);
  w.EndObject();

  w.Key("counts");
  w.BeginObject();
  w.Key("candidates");
  w.Int(counts.candidates);
  w.Key("filter_hits");
  w.Int(counts.filter_hits);
  w.Key("compared");
  w.Int(counts.compared);
  w.Key("results");
  w.Int(counts.results);
  w.Key("truncated");
  w.Bool(counts.truncated);
  w.EndObject();

  w.Key("hw");
  w.BeginObject();
  w.Key("tests");
  w.Int(hw.tests);
  w.Key("mbr_misses");
  w.Int(hw.mbr_misses);
  w.Key("pip_hits");
  w.Int(hw.pip_hits);
  w.Key("sw_threshold_skips");
  w.Int(hw.sw_threshold_skips);
  w.Key("hw_tests");
  w.Int(hw.hw_tests);
  w.Key("hw_rejects");
  w.Int(hw.hw_rejects);
  w.Key("sw_tests");
  w.Int(hw.sw_tests);
  w.Key("width_fallbacks");
  w.Int(hw.width_fallbacks);
  w.Key("hw_faults");
  w.Int(hw.hw_faults);
  w.Key("hw_fallback_pairs");
  w.Int(hw.hw_fallback_pairs);
  w.Key("breaker_opens");
  w.Int(hw.breaker_opens);
  w.Key("fill_spans");
  w.Int(hw.fill_spans);
  w.Key("scan_spans");
  w.Int(hw.scan_spans);
  w.EndObject();

  w.Key("filter");
  w.BeginObject();
  w.Key("interval_hits");
  w.Int(tallies.interval_hits);
  w.Key("interval_misses");
  w.Int(tallies.interval_misses);
  w.Key("interval_undecided");
  w.Int(tallies.interval_undecided);
  w.EndObject();

  w.Key("events");
  w.BeginObject();
  w.Key("deadline_exceeded");
  w.Bool(counts.truncated);
  w.Key("faulted");
  w.Bool(hw.hw_faults > 0);
  w.Key("breaker_opened");
  w.Bool(hw.breaker_opens > 0);
  w.EndObject();

  w.Key("pmu");
  if (config.pmu == nullptr) {
    w.Null();
  } else {
    w.BeginObject();
    w.Key("available");
    w.Bool(config.pmu->available());
    for (int s = 0; s < obs::kPmuStageCount; ++s) {
      const auto stage = static_cast<obs::PmuStage>(s);
      w.Key(obs::PmuStageName(stage));
      w.BeginObject();
      for (int e = 0; e < obs::kPmuEventCount; ++e) {
        const auto event = static_cast<obs::PmuEvent>(e);
        w.Key(obs::PmuEventName(event));
        w.Int(pmu_delta.at(stage, event));
      }
      w.EndObject();
    }
    w.EndObject();
  }

  w.EndObject();
}

}  // namespace

void RecordQueryObs(const HwConfig& config, const char* kind,
                    const StageCosts& costs, const StageCounts& counts,
                    const HwCounters& hw, const QueryObsTallies& tallies,
                    const obs::PmuSnapshot& pmu_begin) {
  // Per-query PMU delta: session totals now minus the snapshot the
  // pipeline captured at Run() entry.
  obs::PmuSnapshot pmu_delta;
  if (config.pmu != nullptr) {
    pmu_delta = config.pmu->Snapshot();
    pmu_delta -= pmu_begin;
  }

  obs::Registry* metrics = config.metrics;
  if (metrics != nullptr) {
    const std::string prefix = std::string(obs::kPipelinePrefix) + kind;
    metrics->GetCounter(prefix + obs::kPipelineRunsSuffix).Increment();

    metrics->GetGauge(obs::kStageMbrMs).Add(costs.mbr_ms);
    metrics->GetCounter(obs::kStageMbrOut).Add(counts.candidates);
    metrics->GetGauge(obs::kStageFilterMs).Add(costs.filter_ms);
    metrics->GetCounter(obs::kStageFilterDecided).Add(counts.filter_hits);
    metrics->GetCounter(obs::kStageIntervalHits).Add(tallies.interval_hits);
    metrics->GetCounter(obs::kStageIntervalMisses)
        .Add(tallies.interval_misses);
    metrics->GetCounter(obs::kStageIntervalUndecided)
        .Add(tallies.interval_undecided);
    metrics->GetGauge(obs::kStageCompareMs).Add(costs.compare_ms);
    metrics->GetCounter(obs::kStageCompareIn).Add(counts.compared);
    metrics->GetCounter(obs::kQueryResults).Add(counts.results);

    // Per-pipeline per-stage latency distributions (microseconds). The
    // stage gauges above are sums; these give the report and bench JSON
    // exact bucket-resolved p50/p90/p99 tails.
    metrics->GetHistogram(prefix + obs::kPipelineMbrUsSuffix)
        .Record(ToMicros(costs.mbr_ms));
    metrics->GetHistogram(prefix + obs::kPipelineFilterUsSuffix)
        .Record(ToMicros(costs.filter_ms));
    metrics->GetHistogram(prefix + obs::kPipelineCompareUsSuffix)
        .Record(ToMicros(costs.compare_ms));
    metrics->GetHistogram(prefix + obs::kPipelineTotalUsSuffix)
        .Record(ToMicros(costs.mbr_ms + costs.filter_ms + costs.compare_ms));

    metrics->GetCounter(obs::kRefineTests).Add(hw.tests);
    metrics->GetCounter(obs::kRefineMbrMisses).Add(hw.mbr_misses);
    metrics->GetCounter(obs::kRefinePipHits).Add(hw.pip_hits);
    metrics->GetCounter(obs::kRefineSwThresholdSkips)
        .Add(hw.sw_threshold_skips);
    metrics->GetCounter(obs::kRefineHwTests).Add(hw.hw_tests);
    metrics->GetCounter(obs::kRefineHwRejects).Add(hw.hw_rejects);
    metrics->GetCounter(obs::kRefineSwTests).Add(hw.sw_tests);
    metrics->GetCounter(obs::kRefineWidthFallbacks).Add(hw.width_fallbacks);
    metrics->GetCounter(obs::kRefineFillSpans).Add(hw.fill_spans);
    metrics->GetCounter(obs::kRefineScanSpans).Add(hw.scan_spans);
    metrics->GetCounter(obs::kRefineFillSaturationStops)
        .Add(hw.fill_saturation_stops);
    metrics->GetCounter(obs::kRefineScanHitStops).Add(hw.scan_hit_stops);
    metrics->GetGauge(obs::kRefinePipMs).Add(hw.pip_ms);
    metrics->GetGauge(obs::kRefineHwMs).Add(hw.hw_ms);
    metrics->GetGauge(obs::kRefineSwMs).Add(hw.sw_ms);

    // Robustness (DESIGN.md §11): degradation and truncation aggregates.
    metrics->GetCounter(obs::kRefineHwFaults).Add(hw.hw_faults);
    metrics->GetCounter(obs::kRefineHwFallbackPairs)
        .Add(hw.hw_fallback_pairs);
    metrics->GetCounter(obs::kBreakerOpens).Add(hw.breaker_opens);
    if (counts.truncated) {
      metrics->GetCounter(obs::kQueryDeadlineExceeded).Increment();
      metrics->GetCounter(obs::kQueryTruncated).Increment();
    }

    // PMU deltas under canonical names. Added even when zero so the full
    // pmu.* name set exists whenever a session is attached (validators and
    // CI --require-counter rely on the presence being deterministic).
    if (config.pmu != nullptr) {
      metrics->GetGauge(obs::kPmuAvailable)
          .Set(config.pmu->available() ? 1.0 : 0.0);
      for (int s = 0; s < obs::kPmuStageCount; ++s) {
        for (int e = 0; e < obs::kPmuEventCount; ++e) {
          metrics->GetCounter(obs::kPmuStageEventNames[s][e])
              .Add(pmu_delta.at(static_cast<obs::PmuStage>(s),
                                static_cast<obs::PmuEvent>(e)));
        }
      }
    }
  }

  if (config.query_log != nullptr &&
      config.query_log->ShouldSample(config.query_log_sample)) {
    std::string line;
    RenderQueryLogRecord(&line, config, kind, costs, counts, hw, tallies,
                         pmu_delta);
    config.query_log->Append(std::move(line));
  }
}

}  // namespace hasj::core
