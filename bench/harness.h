#ifndef HASJ_BENCH_HARNESS_H_
#define HASJ_BENCH_HARNESS_H_

// Shared scaffolding for the paper-figure reproduction harnesses. Each
// fig*/table* binary regenerates one table or figure of the paper: it
// builds the synthetic stand-in datasets (scaled down by --scale to fit a
// single-core run), executes the paper's query pipeline, and prints the
// same series the figure plots. EXPERIMENTS.md interprets the output.
//
// Every harness binary additionally supports the observability flags
// (DESIGN.md §10):
//
//   --json=PATH    machine-readable report: the printed series, a full
//                  metrics-registry snapshot, and the run's query/truncated
//                  accounting (schema_version 3, validated by
//                  scripts/validate_bench_json.py);
//   --trace=PATH   Chrome trace_event file of the run — open it in
//                  chrome://tracing or https://ui.perfetto.dev;
//   --explain      print an EXPLAIN ANALYZE pipeline report after the run;
//   --pmu          sample hardware performance counters per pipeline stage
//                  (perf_event_open; prints [SKIPPED no-perf-events] when
//                  the kernel denies the syscall);
//   --query_log=PATH  write one JSONL record per query (DESIGN.md §15),
//                  sampled by --query_log_sample=F in [0, 1].
//
// Flag parsing is strict: unknown flags and numeric values with trailing
// garbage are usage errors (exit code 2), not silent defaults.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/simd.h"
#include "common/status.h"
#include "core/hw_config.h"
#include "data/catalogs.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/perf_counters.h"
#include "obs/query_log.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace hasj::bench {

struct BenchArgs {
  double scale = 0.02;     // fraction of the Table 2 object counts
  uint64_t seed = 0;       // extra seed offset for the generators (0 = default)
  int threads = 1;         // refinement workers (0 = hardware concurrency)
  std::string json_path;   // --json=PATH; empty = no JSON report
  std::string trace_path;  // --trace=PATH; empty = tracing disabled
  bool explain = false;    // --explain: EXPLAIN ANALYZE after the run
  // Robustness knobs (DESIGN.md §11): injected hardware-site fault
  // probability in [0, 1] (0 = no injector wired at all, the zero-cost
  // disabled path) and per-query deadline in milliseconds (0 = none).
  double fault_rate = 0.0;
  double deadline_ms = 0.0;
  // Raster-interval secondary filter (DESIGN.md §12): decide candidate
  // pairs from precomputed Hilbert-interval approximations before the
  // hardware testers see them.
  bool use_intervals = false;
  // Row-span kernel backend (DESIGN.md §14): auto (default), scalar, or
  // avx2. Parsed into simd_mode by TryParseArgs.
  std::string simd = "auto";
  common::SimdMode simd_mode = common::SimdMode::kAuto;
  // Observability (DESIGN.md §15): per-stage hardware PMU sampling and the
  // structured query log with its sampling rate.
  bool pmu = false;
  std::string query_log_path;      // --query_log=PATH; empty = disabled
  double query_log_sample = 1.0;   // fraction of queries logged, [0, 1]
};

// Checked replacements for atof/atoll: reject empty input, trailing
// garbage, and out-of-range values instead of silently returning 0.
inline bool ParseDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

inline bool ParseInt64(const char* text, int64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

// Parses argv into *args (which carries the per-bench defaults in). All
// flags live in one table so value flags share a single parse-and-validate
// path. Returns false with a diagnostic in *error on unknown flags,
// malformed or out-of-range values; *wants_help is set when --help was
// seen (parsing stops there).
inline bool TryParseArgs(int argc, char** argv, BenchArgs* args,
                         std::string* error, bool* wants_help) {
  struct Flag {
    const char* name;
    enum Kind { kDouble, kInt64, kString, kBool } kind;
    void* target;
  };
  int64_t seed = static_cast<int64_t>(args->seed);
  int64_t threads = args->threads;
  const Flag flags[] = {
      {"scale", Flag::kDouble, &args->scale},
      {"seed", Flag::kInt64, &seed},
      {"threads", Flag::kInt64, &threads},
      {"json", Flag::kString, &args->json_path},
      {"trace", Flag::kString, &args->trace_path},
      {"explain", Flag::kBool, &args->explain},
      {"fault_rate", Flag::kDouble, &args->fault_rate},
      {"deadline_ms", Flag::kDouble, &args->deadline_ms},
      {"use_intervals", Flag::kBool, &args->use_intervals},
      {"simd", Flag::kString, &args->simd},
      {"pmu", Flag::kBool, &args->pmu},
      {"query_log_sample", Flag::kDouble, &args->query_log_sample},
      {"query_log", Flag::kString, &args->query_log_path},
  };

  *wants_help = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      *wants_help = true;
      return true;
    }
    bool matched = false;
    for (const Flag& flag : flags) {
      const size_t name_len = std::strlen(flag.name);
      if (std::strncmp(arg, "--", 2) != 0 ||
          std::strncmp(arg + 2, flag.name, name_len) != 0) {
        continue;
      }
      const char* rest = arg + 2 + name_len;
      if (flag.kind == Flag::kBool) {
        if (*rest != '\0') continue;
        *static_cast<bool*>(flag.target) = true;
      } else {
        if (*rest != '=') continue;
        const char* value = rest + 1;
        bool ok = false;
        switch (flag.kind) {
          case Flag::kDouble:
            ok = ParseDouble(value, static_cast<double*>(flag.target));
            break;
          case Flag::kInt64:
            ok = ParseInt64(value, static_cast<int64_t*>(flag.target));
            break;
          case Flag::kString:
            *static_cast<std::string*>(flag.target) = value;
            ok = *value != '\0';
            break;
          case Flag::kBool:
            break;
        }
        if (!ok) {
          *error = std::string("invalid value for --") + flag.name + ": '" +
                   value + "'";
          return false;
        }
      }
      matched = true;
      break;
    }
    if (!matched) {
      *error = std::string("unknown flag: '") + arg + "'";
      return false;
    }
  }

  if (args->scale <= 0.0 || args->scale > 1.0) {
    *error = "--scale must be in (0, 1]";
    return false;
  }
  if (seed < 0) {
    *error = "--seed must be >= 0";
    return false;
  }
  if (threads < 0 || threads > 4096) {
    *error = "--threads must be in [0, 4096]";
    return false;
  }
  if (args->fault_rate < 0.0 || args->fault_rate > 1.0) {
    *error = "--fault_rate must be in [0, 1]";
    return false;
  }
  if (args->deadline_ms < 0.0) {
    *error = "--deadline_ms must be >= 0";
    return false;
  }
  if (!common::ParseSimdMode(args->simd.c_str(), &args->simd_mode)) {
    *error = "--simd must be one of auto, scalar, avx2 (got '" + args->simd +
             "')";
    return false;
  }
  if (args->query_log_sample < 0.0 || args->query_log_sample > 1.0) {
    *error = "--query_log_sample must be in [0, 1]";
    return false;
  }
  args->seed = static_cast<uint64_t>(seed);
  args->threads = static_cast<int>(threads);
  return true;
}

inline void PrintUsage(const char* argv0, std::FILE* out) {
  std::fprintf(out,
               "usage: %s [--scale=F] [--seed=N] [--threads=N] [--json=PATH] "
               "[--trace=PATH] [--explain]\n"
               "  --scale=F    dataset scale in (0, 1] (fraction of the "
               "paper's Table 2 counts)\n"
               "  --seed=N     extra generator seed offset (default 0)\n"
               "  --threads=N  refinement worker threads "
               "(default 1 = serial, 0 = hardware concurrency)\n"
               "  --json=PATH  write a machine-readable JSON report "
               "(schema_version 3)\n"
               "  --trace=PATH write a Chrome trace_event JSON file "
               "(chrome://tracing, ui.perfetto.dev)\n"
               "  --explain    print an EXPLAIN ANALYZE pipeline report "
               "after the run\n"
               "  --fault_rate=F inject hardware faults with probability F "
               "in [0, 1] (default 0 = no injector)\n"
               "  --deadline_ms=F per-query deadline in milliseconds "
               "(default 0 = none)\n"
               "  --use_intervals enable the raster-interval secondary "
               "filter (DESIGN.md section 12)\n"
               "  --simd=MODE  row-span kernel backend: auto (default), "
               "scalar, avx2 (DESIGN.md section 14)\n"
               "  --pmu        sample hardware performance counters per "
               "pipeline stage (DESIGN.md section 15)\n"
               "  --query_log=PATH write one JSONL record per query "
               "(DESIGN.md section 15)\n"
               "  --query_log_sample=F fraction of queries logged, in "
               "[0, 1] (default 1)\n",
               argv0);
}

inline BenchArgs ParseArgs(int argc, char** argv, double default_scale) {
  BenchArgs args;
  args.scale = default_scale;
  std::string error;
  bool wants_help = false;
  if (!TryParseArgs(argc, argv, &args, &error, &wants_help)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    PrintUsage(argv[0], stderr);
    std::exit(2);
  }
  if (wants_help) {
    PrintUsage(argv[0], stdout);
    std::exit(0);
  }
  return args;
}

// Per-run observability sinks and the --json / --trace / --explain
// emitters. A bench constructs one BenchReport, wires it into every
// HwConfig it runs (Wire), records the rows it prints (Row), and returns
// Finish() from main. When none of the flags were given every sink is
// null, so the instrumented code stays on its zero-cost disabled path.
class BenchReport {
 public:
  BenchReport(std::string bench_name, const BenchArgs& args)
      : bench_name_(std::move(bench_name)), args_(args) {
    if (trace() != nullptr) trace_.NameCurrentTrack("bench-main");
    if (args_.pmu) pmu_.emplace();
    if (!args_.query_log_path.empty()) {
      const Status s = query_log_.Open(args_.query_log_path);
      if (!s.ok()) {
        std::fprintf(stderr, "--query_log: %s\n", s.message().c_str());
        query_log_failed_ = true;
      }
    }
    if (args_.fault_rate > 0.0) {
      faults_.emplace(args_.seed);
      const FaultPlan plan = FaultPlan::Probability(args_.fault_rate);
      faults_->SetPlan(FaultSite::kFramebufferAlloc, plan);
      faults_->SetPlan(FaultSite::kRenderPass, plan);
      faults_->SetPlan(FaultSite::kScanReadback, plan);
      // Interval builds degrade per object at this site (DESIGN.md §12);
      // harmless for benches that never build intervals.
      faults_->SetPlan(FaultSite::kDatasetLoad, plan);
    }
  }

  // Metrics sink; null unless --json or --explain asked for a snapshot.
  obs::Registry* metrics() {
    return args_.json_path.empty() && !args_.explain ? nullptr : &registry_;
  }

  // Trace sink; null unless --trace was given.
  obs::TraceSession* trace() {
    return args_.trace_path.empty() ? nullptr : &trace_;
  }

  // Fault injector; null unless --fault_rate > 0 wired one up.
  FaultInjector* faults() {
    return faults_.has_value() ? &*faults_ : nullptr;
  }

  // PMU sampler; null unless --pmu was given.
  obs::PerfCounters* pmu() { return pmu_.has_value() ? &*pmu_ : nullptr; }

  // Query-log sink; null unless --query_log opened a file.
  obs::QueryLog* query_log() {
    return query_log_.open() ? &query_log_ : nullptr;
  }

  // Points config->metrics / config->trace / config->faults / config->pmu /
  // config->query_log at this report's sinks and applies --deadline_ms.
  void Wire(core::HwConfig* config) {
    config->metrics = metrics();
    config->trace = trace();
    config->faults = faults();
    config->pmu = pmu();
    config->query_log = query_log();
    config->query_log_sample = args_.query_log_sample;
    config->deadline_ms = args_.deadline_ms;
    config->use_intervals = args_.use_intervals;
    config->simd = args_.simd_mode;
  }

  // Notes one executed query's terminal status for the report's run
  // accounting (schema 3): kDeadlineExceeded means the query was truncated
  // by its budget/cancellation, so downstream tooling can tell a fast run
  // from a cut-short one. Benches that run whole pipelines rather than
  // individual queries may never call this; the counts then stay 0.
  void NoteQuery(const Status& status) {
    ++queries_;
    if (status.code() == StatusCode::kDeadlineExceeded) ++truncated_;
  }

  int64_t queries() const { return queries_; }
  int64_t truncated() const { return truncated_; }

  // Records one plotted row — the series label plus its numeric columns —
  // reproduced verbatim in the --json report's "series" array.
  void Row(std::string series,
           std::initializer_list<std::pair<const char*, double>> values) {
    SeriesRow row;
    row.series = std::move(series);
    for (const auto& [name, value] : values) row.values.emplace_back(name, value);
    rows_.push_back(std::move(row));
  }

  // Emits everything the flags asked for. Returns the process exit code:
  // 0, or 1 when an output file could not be written.
  [[nodiscard]] int Finish() {
    int exit_code = query_log_failed_ ? 1 : 0;
    if (query_log_.open()) {
      if (const Status s = query_log_.Close(); !s.ok()) {
        std::fprintf(stderr, "--query_log: %s\n", s.message().c_str());
        exit_code = 1;
      }
    }
    // Surface trace truncation in the snapshot (and thus --json/--explain):
    // a silently clipped trace reads as "covered everything" otherwise.
    if (metrics() != nullptr && trace() != nullptr &&
        trace_.dropped_events() > 0) {
      registry_.GetCounter(obs::kTraceDropped).Add(trace_.dropped_events());
    }
    if (args_.pmu && !pmu_->available()) {
      std::printf("# pmu: [SKIPPED no-perf-events] perf_event_open denied; "
                  "PMU deltas are zero\n");
    }
    if (args_.explain) {
      std::printf("%s", obs::RenderReport(registry_.Snapshot()).c_str());
    }
    if (!args_.json_path.empty()) {
      std::string json;
      WriteJson(&json);
      if (!WriteFile(args_.json_path, json)) exit_code = 1;
    }
    if (!args_.trace_path.empty()) {
      const Status status = trace_.WriteFile(args_.trace_path);
      if (!status.ok()) {
        std::fprintf(stderr, "--trace: %s\n", status.message().c_str());
        exit_code = 1;
      }
    }
    return exit_code;
  }

 private:
  struct SeriesRow {
    std::string series;
    std::vector<std::pair<std::string, double>> values;
  };

  void WriteJson(std::string* out) const {
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("schema_version");
    w.Int(3);
    w.Key("bench_name");
    w.String(bench_name_);
    w.Key("scale");
    w.Double(args_.scale);
    w.Key("seed");
    w.Int(static_cast<int64_t>(args_.seed));
    w.Key("threads");
    w.Int(args_.threads);
    w.Key("fault_rate");
    w.Double(args_.fault_rate);
    w.Key("deadline_ms");
    w.Double(args_.deadline_ms);
    w.Key("simd");
    w.String(args_.simd);
    w.Key("use_intervals");
    w.Bool(args_.use_intervals);
    w.Key("pmu_requested");
    w.Bool(args_.pmu);
    w.Key("pmu_available");
    w.Bool(pmu_.has_value() && pmu_->available());
    w.Key("query_log_path");
    w.String(args_.query_log_path);
    w.Key("query_log_records");
    w.Int(query_log_.written());
    w.Key("query_log_dropped");
    w.Int(query_log_.dropped());
    w.Key("queries");
    w.Int(queries_);
    w.Key("truncated");
    w.Int(truncated_);
    w.Key("series");
    w.BeginArray();
    for (const SeriesRow& row : rows_) {
      w.BeginObject();
      w.Key("series");
      w.String(row.series);
      w.Key("metrics");
      w.BeginObject();
      for (const auto& [name, value] : row.values) {
        w.Key(name);
        w.Double(value);
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    const obs::MetricsSnapshot snap = registry_.Snapshot();
    w.Key("metrics");
    w.BeginObject();
    w.Key("counters");
    w.BeginObject();
    for (const auto& [name, value] : snap.counters) {
      w.Key(name);
      w.Int(value);
    }
    w.EndObject();
    w.Key("gauges");
    w.BeginObject();
    for (const auto& [name, value] : snap.gauges) {
      w.Key(name);
      w.Double(value);
    }
    w.EndObject();
    w.Key("histograms");
    w.BeginObject();
    for (const auto& [name, hist] : snap.histograms) {
      w.Key(name);
      w.BeginObject();
      w.Key("count");
      w.Int(hist.count);
      w.Key("sum");
      w.Int(hist.sum);
      w.Key("min");
      w.Int(hist.count > 0 ? hist.min : 0);
      w.Key("max");
      w.Int(hist.count > 0 ? hist.max : 0);
      w.Key("p50");
      w.Int(hist.P50());
      w.Key("p90");
      w.Int(hist.P90());
      w.Key("p99");
      w.Int(hist.P99());
      w.Key("buckets");
      w.BeginArray();
      for (const int64_t bucket : hist.buckets) w.Int(bucket);
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    w.EndObject();
    out->push_back('\n');
  }

  static bool WriteFile(const std::string& path, const std::string& contents) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                   path.c_str());
      return false;
    }
    const size_t written =
        std::fwrite(contents.data(), 1, contents.size(), file);
    const bool closed = std::fclose(file) == 0;
    if (written != contents.size() || !closed) {
      std::fprintf(stderr, "--json: short write to '%s'\n", path.c_str());
      return false;
    }
    return true;
  }

  std::string bench_name_;
  BenchArgs args_;
  obs::Registry registry_;
  obs::TraceSession trace_;
  std::optional<obs::PerfCounters> pmu_;
  obs::QueryLog query_log_;
  bool query_log_failed_ = false;
  int64_t queries_ = 0;
  int64_t truncated_ = 0;
  std::optional<FaultInjector> faults_;
  std::vector<SeriesRow> rows_;
};

inline data::Dataset Generate(data::GeneratorProfile profile,
                              const BenchArgs& args) {
  if (args.seed != 0) profile.seed ^= args.seed;
  return data::GenerateDataset(profile);
}

inline void PrintHeader(const char* title, const BenchArgs& args) {
  std::printf("# %s\n", title);
  std::printf("# scale=%g seed=%llu (synthetic stand-ins for the paper's "
              "datasets; see DESIGN.md)\n",
              args.scale, static_cast<unsigned long long>(args.seed));
}

inline void PrintDataset(const data::Dataset& ds) {
  const data::DatasetStats s = ds.Stats();
  std::printf("# dataset %-9s N=%-6lld vertices min=%lld max=%lld avg=%.0f\n",
              ds.name().c_str(), static_cast<long long>(s.count),
              static_cast<long long>(s.min_vertices),
              static_cast<long long>(s.max_vertices), s.mean_vertices);
}

}  // namespace hasj::bench

#endif  // HASJ_BENCH_HARNESS_H_
