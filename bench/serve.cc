// Closed-loop driver for the snapshot-isolated QueryServer (DESIGN.md §16):
// client threads issue mixed selection / distance-selection / join traffic
// against a store that a concurrent writer mutates with a generated
// insert/delete stream, in two phases — steady (as many clients as
// workers, so nothing queues) and overload (2x the queue capacity plus
// workers, so the admission policy and the degradation ladder carry the
// load). Reports per-phase qps and accepted-latency p50/p90/p99, and
// enforces the overload contract as exit-code gates:
//
//   * the admission queue never exceeds its capacity (gauge-checked);
//   * steady load sheds nothing; overload sheds, and every shed fails
//     fast with kResourceExhausted;
//   * the ladder engages under overload (degraded admissions observed)
//     and accepted-query p99 stays within a bound scaled from the steady
//     phase — bounded degradation, not collapse;
//   * sampled oracle verification never observes a divergent verdict, and
//     the update writer applies its whole stream without error.
//
// --fault_rate wires the hardware fault injector into every query;
// --deadline_ms gives each query a budget (truncations are counted in the
// schema-3 --json accounting); --threads sets the worker count.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/server.h"
#include "core/snapshot_query.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace hasj::bench {
namespace {

constexpr double kExtent = 400.0;
constexpr size_t kQueueCapacity = 16;
constexpr int64_t kWriterOps = 4000;
constexpr int kSteadyQueriesPerClient = 60;
constexpr int kOverloadQueriesPerClient = 30;
constexpr int64_t kVerifyEvery = 7;

struct PhaseStats {
  std::vector<double> accepted_ms;  // latency of queries that ran to OK
  int64_t shed = 0;
  int64_t truncated = 0;
  int64_t mismatched = 0;  // kInternal: server verdict diverged
  int64_t other_errors = 0;
  double wall_ms = 0.0;

  void Merge(const PhaseStats& o) {
    accepted_ms.insert(accepted_ms.end(), o.accepted_ms.begin(),
                       o.accepted_ms.end());
    shed += o.shed;
    truncated += o.truncated;
    mismatched += o.mismatched;
    other_errors += o.other_errors;
  }
};

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t idx = static_cast<size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return (*values)[idx];
}

data::GeneratorProfile ObjectProfile(const BenchArgs& args) {
  data::GeneratorProfile profile;
  profile.name = "serve";
  profile.count = std::max<int64_t>(80, static_cast<int64_t>(4000 * args.scale));
  profile.mean_vertices = 12;
  profile.max_vertices = 48;
  profile.extent = geom::Box(0, 0, kExtent, kExtent);
  profile.seed = 91 ^ args.seed;
  return profile;
}

geom::Polygon Probe(double cx, double cy, double half) {
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

// One closed-loop client: issues `queries` requests back to back. The mix
// rotates selection / distance-selection / join (the expensive self-join
// keeps the workers busy enough for overload to queue); odd clients submit
// at batch priority so both admission classes see traffic.
PhaseStats RunClient(core::QueryServer* server, const BenchArgs& args,
                     int client, int queries) {
  PhaseStats stats;
  stats.accepted_ms.reserve(static_cast<size_t>(queries));
  uint64_t rng = 0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(client) << 32) ^
                 args.seed;
  for (int i = 0; i < queries; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const double cx = 20.0 + static_cast<double>((rng >> 16) % 360);
    const double cy = 20.0 + static_cast<double>((rng >> 40) % 360);
    core::QueryRequest request;
    switch (i % 4) {
      case 0:
      case 1:
        request.kind = core::QueryKind::kSelection;
        break;
      case 2:
        request.kind = core::QueryKind::kDistanceSelection;
        request.distance = 6.0;
        break;
      default:
        request.kind = core::QueryKind::kJoin;
        break;
    }
    request.query = Probe(cx, cy, 24.0);
    request.priority = (client % 2 == 0) ? core::QueryPriority::kInteractive
                                         : core::QueryPriority::kBatch;
    request.deadline_ms = args.deadline_ms;
    Stopwatch latency;
    const core::QueryResponse response = server->Execute(request);
    const double elapsed_ms = latency.ElapsedMillis();
    switch (response.status.code()) {
      case StatusCode::kOk:
        stats.accepted_ms.push_back(elapsed_ms);
        break;
      case StatusCode::kResourceExhausted:
        ++stats.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++stats.truncated;
        break;
      case StatusCode::kInternal:
        ++stats.mismatched;
        break;
      default:
        ++stats.other_errors;
        break;
    }
  }
  return stats;
}

PhaseStats RunPhase(core::QueryServer* server, const BenchArgs& args,
                    int clients, int queries_per_client) {
  std::vector<PhaseStats> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      per_client[static_cast<size_t>(c)] =
          RunClient(server, args, c, queries_per_client);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseStats total;
  total.wall_ms = wall.ElapsedMillis();
  for (const PhaseStats& s : per_client) total.Merge(s);
  return total;
}

bool Gate(bool ok, const char* what) {
  std::printf("# GATE %-52s %s\n", what, ok ? "pass" : "FAIL");
  return ok;
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_scale=*/0.02);
  BenchReport report("serve", args);
  PrintHeader("serve: closed-loop query server under update traffic", args);

  const data::GeneratorProfile profile = ObjectProfile(args);
  // Worst case every stream op is an insert (deletes that find nothing
  // live are emitted as inserts), so size the write-once slots for all of
  // them.
  const size_t capacity =
      static_cast<size_t>(profile.count) + static_cast<size_t>(kWriterOps);
  data::VersionedDataset store("serve", capacity);
  if (const Status s = store.SeedFrom(data::GenerateDataset(profile));
      !s.ok()) {
    std::fprintf(stderr, "seed: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("# store N=%lld capacity=%zu\n",
              static_cast<long long>(profile.count), capacity);

  int workers = args.threads;
  if (workers == 0) {
    workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  obs::Registry server_metrics;
  core::ServerConfig config;
  config.num_workers = workers;
  config.queue_capacity = kQueueCapacity;
  config.verify_every = kVerifyEvery;
  config.metrics = &server_metrics;
  report.Wire(&config.options.hw);
  // The server owns per-query deadlines; the harness flag rides on each
  // request instead (RunClient).
  config.options.hw.deadline_ms = 0.0;
  core::QueryServer server(&store, config);
  if (const Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.message().c_str());
    return 1;
  }

  // Update traffic for the whole run: one writer applying a generated
  // insert/delete stream at full speed, snapshot-isolated from every query.
  std::atomic<bool> stop_writer{false};
  std::atomic<int64_t> writer_errors{0};
  std::atomic<int64_t> writer_ops{0};
  std::thread writer([&] {
    data::UpdateStreamProfile stream;
    stream.objects = profile;
    stream.operations = kWriterOps;
    stream.insert_fraction = 0.5;
    stream.seed = 7 ^ args.seed;
    std::unordered_map<int64_t, int64_t> key_to_id;
    for (const data::UpdateOp& op : data::GenerateUpdateStream(stream)) {
      if (stop_writer.load(std::memory_order_acquire)) break;
      if (!data::ApplyUpdateOp(op, &store, &key_to_id).ok()) {
        writer_errors.fetch_add(1, std::memory_order_acq_rel);
      }
      writer_ops.fetch_add(1, std::memory_order_acq_rel);
    }
  });

  struct Phase {
    const char* name;
    int clients;
    int queries_per_client;
  };
  const Phase phases[] = {
      {"steady", workers, kSteadyQueriesPerClient},
      {"overload",
       2 * (static_cast<int>(kQueueCapacity) + workers),
       kOverloadQueriesPerClient},
  };

  std::printf("# %-9s %7s %8s %9s %9s %9s %6s %6s\n", "phase", "clients",
              "qps", "p50_ms", "p90_ms", "p99_ms", "shed", "trunc");
  double steady_p99 = 0.0;
  double overload_p99 = 0.0;
  int64_t overload_shed = 0;
  int64_t shed_steady = 0;
  int64_t mismatches = 0;
  int64_t other_errors = 0;
  int64_t degraded_before_overload = 0;
  for (const Phase& phase : phases) {
    if (std::string(phase.name) == "overload") {
      const obs::MetricsSnapshot snap = server_metrics.Snapshot();
      degraded_before_overload = snap.counter(obs::kServerDegradedL2) +
                                 snap.counter(obs::kServerDegradedL3);
    }
    PhaseStats stats =
        RunPhase(&server, args, phase.clients, phase.queries_per_client);
    const int64_t total =
        static_cast<int64_t>(phase.clients) * phase.queries_per_client;
    const double qps = stats.wall_ms > 0.0
                           ? static_cast<double>(stats.accepted_ms.size()) /
                                 (stats.wall_ms / 1e3)
                           : 0.0;
    const double p50 = Percentile(&stats.accepted_ms, 0.50);
    const double p90 = Percentile(&stats.accepted_ms, 0.90);
    const double p99 = Percentile(&stats.accepted_ms, 0.99);
    std::printf("# %-9s %7d %8.0f %9.3f %9.3f %9.3f %6lld %6lld\n", phase.name,
                phase.clients, qps, p50, p90, p99,
                static_cast<long long>(stats.shed),
                static_cast<long long>(stats.truncated));
    // Only timing-suffixed metrics and schedule-independent counts go in
    // the series rows: bench_compare.py treats everything else as an
    // exact-match counter, and shed/degraded splits depend on thread
    // interleaving (the *totals* are deterministic).
    report.Row(phase.name,
               {{"wall_ms", stats.wall_ms},
                {"latency_p50_ms", p50},
                {"latency_p90_ms", p90},
                {"latency_p99_ms", p99},
                {"queries", static_cast<double>(total)},
                {"shed_frac", static_cast<double>(stats.shed) /
                                  static_cast<double>(total)},
                {"mismatches", static_cast<double>(stats.mismatched)}});
    for (size_t i = 0; i < stats.accepted_ms.size(); ++i) {
      report.NoteQuery(Status::Ok());
    }
    for (int64_t i = 0; i < stats.truncated; ++i) {
      report.NoteQuery(Status::DeadlineExceeded("query budget"));
    }
    mismatches += stats.mismatched;
    other_errors += stats.other_errors;
    if (std::string(phase.name) == "steady") {
      steady_p99 = p99;
      shed_steady = stats.shed;
    } else {
      overload_shed = stats.shed;
      overload_p99 = p99;
    }
  }

  stop_writer.store(true, std::memory_order_release);
  writer.join();
  server.Shutdown();

  const obs::MetricsSnapshot snap = server_metrics.Snapshot();
  const int64_t degraded_overload = snap.counter(obs::kServerDegradedL2) +
                                    snap.counter(obs::kServerDegradedL3) -
                                    degraded_before_overload;
  const double max_depth = snap.gauge(obs::kServerQueueDepthMax);
  std::printf("# writer ops=%lld errors=%lld | verified=%lld mismatch=%lld | "
              "max_queue_depth=%.0f degraded_overload=%lld\n",
              static_cast<long long>(writer_ops.load(std::memory_order_acquire)),
              static_cast<long long>(
                  writer_errors.load(std::memory_order_acquire)),
              static_cast<long long>(snap.counter(obs::kServerVerified)),
              static_cast<long long>(snap.counter(obs::kServerVerifyMismatch)),
              max_depth, static_cast<long long>(degraded_overload));

  // The accepted-latency bound under 2x saturation: queueing behind a full
  // admission queue, not collapse. Scaled from the steady phase with a
  // generous factor so shared-runner noise cannot flake the gate.
  const double p99_bound_ms =
      std::max(100.0, 8.0 * static_cast<double>(kQueueCapacity + 2) *
                          std::max(steady_p99, 0.05));

  bool ok = true;
  ok &= Gate(max_depth <= static_cast<double>(kQueueCapacity),
             "queue depth never exceeds capacity");
  ok &= Gate(shed_steady == 0, "steady phase sheds nothing");
  ok &= Gate(overload_shed > 0,
             "overload sheds fast with kResourceExhausted");
  ok &= Gate(degraded_overload > 0, "degradation ladder engages in overload");
  ok &= Gate(overload_p99 <= p99_bound_ms,
             "overload accepted p99 within bounded-degradation gate");
  ok &= Gate(snap.counter(obs::kServerVerifyMismatch) == 0 && mismatches == 0,
             "sampled oracle verification sees exact verdicts");
  ok &= Gate(writer_errors.load(std::memory_order_acquire) == 0,
             "update writer applies its stream cleanly");
  ok &= Gate(other_errors == 0, "no unexpected query statuses");
  std::printf("# overload p99=%.3f ms bound=%.3f ms\n", overload_p99,
              p99_bound_ms);

  const int report_code = report.Finish();
  return ok ? report_code : 1;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Run(argc, argv); }
