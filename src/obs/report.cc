#include "obs/report.h"

#include <cstdarg>
#include <cstdio>
#include <string_view>

#include "obs/names.h"

namespace hasj::obs {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

double Pct(int64_t part, int64_t whole) {
  return whole > 0
             ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
             : 0.0;
}

void AppendHistogram(std::string* out, const std::string& name,
                     const HistogramSnapshot& h) {
  Appendf(out,
          "  %-24s count=%lld mean=%.1f min=%lld max=%lld"
          " p50=%lld p90=%lld p99=%lld\n",
          name.c_str(), static_cast<long long>(h.count), h.Mean(),
          static_cast<long long>(h.count > 0 ? h.min : 0),
          static_cast<long long>(h.count > 0 ? h.max : 0),
          static_cast<long long>(h.P50()), static_cast<long long>(h.P90()),
          static_cast<long long>(h.P99()));
}

// Latency quantile columns for one pipeline stage histogram
// ("pipeline.<kind><suffix>"); silently absent when the histogram is not
// in the snapshot (pre-quantile producers, hand-built fixtures).
void AppendLatencyRow(std::string* out, const MetricsSnapshot& snapshot,
                      const std::string& kind, const char* stage,
                      const char* suffix) {
  const auto it =
      snapshot.histograms.find(std::string(kPipelinePrefix) + kind + suffix);
  if (it == snapshot.histograms.end()) return;
  const HistogramSnapshot& h = it->second;
  Appendf(out,
          "  %-10s %-8s p50=%lldus p90=%lldus p99=%lldus max=%lldus"
          " (n=%lld)\n",
          kind.c_str(), stage, static_cast<long long>(h.P50()),
          static_cast<long long>(h.P90()), static_cast<long long>(h.P99()),
          static_cast<long long>(h.count > 0 ? h.max : 0),
          static_cast<long long>(h.count));
}

}  // namespace

std::string RenderReport(const MetricsSnapshot& snapshot) {
  std::string out;

  // Header: which pipeline kinds ran (counters "pipeline.<kind>.runs").
  out.append("EXPLAIN ANALYZE");
  bool first_kind = true;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string_view sv(name);
    if (!sv.starts_with(kPipelinePrefix) ||
        !sv.ends_with(kPipelineRunsSuffix) || value <= 0) {
      continue;
    }
    const std::string_view kind = sv.substr(
        sizeof(kPipelinePrefix) - 1,
        sv.size() - (sizeof(kPipelinePrefix) - 1) -
            (sizeof(kPipelineRunsSuffix) - 1));
    Appendf(&out, "%s %.*s x%lld", first_kind ? "" : ",",
            static_cast<int>(kind.size()), kind.data(),
            static_cast<long long>(value));
    first_kind = false;
  }
  if (first_kind) out.append(" (no pipeline runs recorded)");
  out.push_back('\n');

  const int64_t candidates = snapshot.counter(kStageMbrOut);
  const int64_t decided = snapshot.counter(kStageFilterDecided);
  const int64_t compared = snapshot.counter(kStageCompareIn);
  const int64_t results = snapshot.counter(kQueryResults);

  Appendf(&out, "|- mbr filter        %9.3f ms | candidates: %lld\n",
          snapshot.gauge(kStageMbrMs), static_cast<long long>(candidates));
  Appendf(&out, "|- interm. filter    %9.3f ms | decided: %lld (%.1f%%)\n",
          snapshot.gauge(kStageFilterMs), static_cast<long long>(decided),
          Pct(decided, candidates));
  Appendf(&out,
          "`- geometry compare  %9.3f ms | in: %lld  results: %lld"
          " (selectivity %.1f%%)\n",
          snapshot.gauge(kStageCompareMs), static_cast<long long>(compared),
          static_cast<long long>(results), Pct(results, candidates));

  // Refinement routing: how the compared pairs were decided.
  const int64_t tests = snapshot.counter(kRefineTests);
  const int64_t mbr_misses = snapshot.counter(kRefineMbrMisses);
  const int64_t pip_hits = snapshot.counter(kRefinePipHits);
  const int64_t sw_skips = snapshot.counter(kRefineSwThresholdSkips);
  const int64_t hw_tests = snapshot.counter(kRefineHwTests);
  const int64_t sw_tests = snapshot.counter(kRefineSwTests);
  Appendf(&out, "   |- routing (of %lld tests)\n",
          static_cast<long long>(tests));
  Appendf(&out, "   |    mbr-miss: %lld (%.1f%%)  pip-hit: %lld (%.1f%%)\n",
          static_cast<long long>(mbr_misses), Pct(mbr_misses, tests),
          static_cast<long long>(pip_hits), Pct(pip_hits, tests));
  Appendf(&out,
          "   |    hw: %lld (%.1f%%)  sw: %lld (%.1f%%)"
          "  [sw-threshold skips: %lld]\n",
          static_cast<long long>(hw_tests), Pct(hw_tests, tests),
          static_cast<long long>(sw_tests), Pct(sw_tests, tests),
          static_cast<long long>(sw_skips));
  Appendf(&out, "   |    cost skips: %lld  run-box rejects: %lld\n",
          static_cast<long long>(snapshot.counter(kRefineCostSkips)),
          static_cast<long long>(snapshot.counter(kRefineRunBoxRejects)));
  Appendf(&out,
          "   |- hw path          %9.3f ms | rejects: %lld"
          "  width fallbacks: %lld\n",
          snapshot.gauge(kRefineHwMs),
          static_cast<long long>(snapshot.counter(kRefineHwRejects)),
          static_cast<long long>(snapshot.counter(kRefineWidthFallbacks)));
  Appendf(&out, "   `- sw path          %9.3f ms | pip: %9.3f ms\n",
          snapshot.gauge(kRefineSwMs), snapshot.gauge(kRefinePipMs));

  // Trace truncation (harness-exported trace.dropped counter): silent drops
  // would make a capped trace look complete, so surface them here.
  const int64_t trace_dropped = snapshot.counter(kTraceDropped);
  if (trace_dropped > 0) {
    Appendf(&out,
            "   trace: %lld event(s) dropped"
            " (per-track cap hit; trace truncated)\n",
            static_cast<long long>(trace_dropped));
  }

  // Per-pipeline per-stage latency quantiles (exact bucket-resolved; see
  // HistogramSnapshot::Quantile). Emitted only when the latency histograms
  // exist — i.e. at least one pipeline ran with metrics attached.
  bool latency_header = false;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string_view sv(name);
    if (!sv.starts_with(kPipelinePrefix) ||
        !sv.ends_with(kPipelineRunsSuffix) || value <= 0) {
      continue;
    }
    const std::string kind(sv.substr(
        sizeof(kPipelinePrefix) - 1,
        sv.size() - (sizeof(kPipelinePrefix) - 1) -
            (sizeof(kPipelineRunsSuffix) - 1)));
    if (!latency_header &&
        snapshot.histograms.contains(std::string(kPipelinePrefix) + kind +
                                     kPipelineTotalUsSuffix)) {
      out.append("latency quantiles (us/query):\n");
      latency_header = true;
    }
    AppendLatencyRow(&out, snapshot, kind, "mbr", kPipelineMbrUsSuffix);
    AppendLatencyRow(&out, snapshot, kind, "filter", kPipelineFilterUsSuffix);
    AppendLatencyRow(&out, snapshot, kind, "compare",
                     kPipelineCompareUsSuffix);
    AppendLatencyRow(&out, snapshot, kind, "total", kPipelineTotalUsSuffix);
  }

  // PMU section (obs/perf_counters.h): present iff a PerfCounters session
  // was attached; `pmu.available` says whether perf_event_open worked.
  if (snapshot.gauges.contains(kPmuAvailable)) {
    if (snapshot.gauge(kPmuAvailable) > 0.0) {
      out.append("pmu (per stage, multiplex-scaled):\n");
      for (const auto* row : kPmuStageEventNames) {
        const int64_t cycles = snapshot.counter(row[0]);
        const int64_t instructions = snapshot.counter(row[1]);
        // row[0] is "pmu.<stage>.cycles"; print the stage part.
        const std::string_view stage_name =
            std::string_view(row[0]).substr(4,
                                            std::string_view(row[0]).size() -
                                                4 - sizeof(".cycles") + 1);
        Appendf(&out,
                "  %-16.*s cycles=%lld instr=%lld ipc=%.2f"
                " cache-miss=%lld branch-miss=%lld\n",
                static_cast<int>(stage_name.size()), stage_name.data(),
                static_cast<long long>(cycles),
                static_cast<long long>(instructions),
                cycles > 0 ? static_cast<double>(instructions) /
                                 static_cast<double>(cycles)
                           : 0.0,
                static_cast<long long>(snapshot.counter(row[2])),
                static_cast<long long>(snapshot.counter(row[3])));
      }
    } else {
      out.append(
          "pmu: unavailable (perf_event_open denied; counters zero)\n");
    }
  }

  if (!snapshot.histograms.empty()) {
    out.append("histograms:\n");
    for (const auto& [name, h] : snapshot.histograms) {
      AppendHistogram(&out, name, h);
    }
  }
  return out;
}

}  // namespace hasj::obs
