// Layer benchmark program: three serial, seeded workloads run through the
// public APIs of core, data, index, filter and algo. One process runs one
// workload and prints its raw samples as a single JSON object on stdout;
// run.py turns them into the end-to-end and per-layer metrics.
//
//   layerbench --workload land_join|water_select|store_serve --seed N
//              --seconds S --trace 0|1 [--inject-mismatch]
//
// Every run of a given (workload, seed, seconds) executes the same ops in
// the same order: the op list comes from the seed, and --seconds sets the
// number of passes over it from a nominal pass time, not a wall-clock
// deadline. Results are checked outside the timed spans. With --trace 1
// each op is executed by the program and then replayed as direct calls
// into each layer's public functions; the replay must reproduce the op's
// result and integer counts exactly.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "algo/polygon_intersect.h"
#include "common/status.h"
#include "core/batch_tester.h"
#include "core/hw_intersection.h"
#include "core/join.h"
#include "core/selection.h"
#include "core/server.h"
#include "core/snapshot_query.h"
#include "data/catalogs.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "filter/interval_approx.h"
#include "filter/object_filters.h"
#include "geom/box.h"
#include "geom/polygon.h"
#include "index/rtree.h"
#include "obs/json.h"

namespace hasj::layerbench {
namespace {

using Clock = std::chrono::steady_clock;
using Pair = std::pair<int64_t, int64_t>;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Wall milliseconds of one call.
template <typename F>
double TimeMs(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return MsBetween(t0, Clock::now());
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Independent sub-seed of the run seed for one generated input.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return SplitMix(SplitMix(seed) ^ (salt * 0x632be59bd9b4e019ull));
}

// Deterministic uniform doubles in [0, 1) from one sub-seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  double Uniform() {
    state_ = SplitMix(state_);
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }
  size_t Below(size_t n) {
    return static_cast<size_t>(Uniform() * static_cast<double>(n));
  }

 private:
  uint64_t state_;
};

// Query centers spread evenly over `box`: one uniformly jittered point in
// each of n distinct cells of a near-square grid, so every seed samples the
// whole extent instead of piling its queries into a few clusters.
std::vector<geom::Point> StratifiedCenters(const geom::Box& box, size_t n,
                                           Rng* rng) {
  const double aspect = box.Width() / box.Height();
  const size_t cols = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(n) * aspect)));
  const size_t rows = (n + cols - 1) / cols;
  std::vector<size_t> cells(cols * rows);
  for (size_t c = 0; c < cells.size(); ++c) cells[c] = c;
  for (size_t k = cells.size(); k > 1; --k) {
    std::swap(cells[k - 1], cells[rng->Below(k)]);
  }
  const double cw = box.Width() / static_cast<double>(cols);
  const double ch = box.Height() / static_cast<double>(rows);
  std::vector<geom::Point> centers;
  for (size_t q = 0; q < n; ++q) {
    const double x = static_cast<double>(cells[q] % cols) + rng->Uniform();
    const double y = static_cast<double>(cells[q] / cols) + rng->Uniform();
    centers.push_back({box.min_x + x * cw, box.min_y + y * ch});
  }
  return centers;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool inject_mismatch = false;
};

// Passes over the op list for a run of `seconds`, from the workload's
// nominal pass time on the reference machine; at least three so every op
// latency is a median. Traced runs replay each op besides executing it and
// use half the passes.
int PassCount(double seconds, double nominal_pass_s, bool trace) {
  const double passes = std::round(seconds / nominal_pass_s);
  const int count = static_cast<int>(std::max(3.0, passes));
  return trace ? std::max(3, count / 2) : count;
}

// Set-ups are spread over the run, `ceil((r+1)S/R) - ceil(rS/R)` before
// pass r, so their median does not hinge on one moment of machine load.
int SetupsBefore(int pass, int passes, int setups) {
  const auto ceil_div = [](int64_t a, int64_t b) { return (a + b - 1) / b; };
  return static_cast<int>(ceil_div(int64_t{pass + 1} * setups, passes) -
                          ceil_div(int64_t{pass} * setups, passes));
}

// Everything one run measured, printed raw for run.py.
struct Record {
  std::vector<std::string> kinds;  // op kind per position in the op list
  std::vector<double> setup_s;         // program set-ups
  std::vector<double> traced_setup_s;  // replayed set-ups (trace)
  std::vector<std::map<std::string, double>> setup_spans;  // (trace)
  std::vector<std::vector<double>> op_ms;      // [pass][op], program
  std::vector<std::vector<double>> replay_ms;  // [pass][op] (trace)
  // Latency of each insert or delete, per pass or per timed load, and the
  // kind ("insert" or "delete") of each.
  std::vector<std::vector<double>> write_ms;
  std::vector<std::string> write_kinds;
  std::vector<std::map<std::string, double>> layers;   // [pass] (trace)
  std::vector<std::map<std::string, int64_t>> counts;  // [pass] (trace)
  int64_t attempted = 0;
  int64_t ok = 0;
  std::vector<std::string> problems;
  double rss_mb = 0.0;

  // Sizes and touches every sample row before the resident-memory baseline
  // is taken, so rss_mb counts the program's memory and not these records;
  // the rows are then filled with push_back without reallocating.
  void Reserve(size_t passes, size_t ops, size_t write_rows, size_t writes,
               bool trace) {
    const auto rows = [](size_t n, size_t width) {
      std::vector<std::vector<double>> out(n);
      for (std::vector<double>& row : out) {
        row.resize(width);
        row.clear();
      }
      return out;
    };
    op_ms = rows(passes, ops);
    if (trace) replay_ms = rows(passes, ops);
    write_ms = rows(write_rows, writes);
  }

  // Counts one op: OK only if it returned OK and matched its reference
  // (and, traced, its replay).
  void Outcome(bool ok_op, const std::string& what) {
    ++attempted;
    if (ok_op) {
      ++ok;
    } else if (problems.size() < 20) {
      problems.push_back(what);
    }
  }
};

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakResidentMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Builds a Dataset from generated polygons: the data layer's load step.
std::unique_ptr<data::Dataset> LoadDataset(
    const std::vector<geom::Polygon>& polygons, const char* name) {
  auto dataset = std::make_unique<data::Dataset>(name);
  for (const geom::Polygon& p : polygons) dataset->Add(p);
  return dataset;
}

// Latency of every Dataset::Add in one load of `inputs`: the insert path of
// the static pipelines, which have no writes between ops. Timed on a load
// of its own so the set-up samples do not carry the per-insert timers.
void TimedLoad(const std::vector<const std::vector<geom::Polygon>*>& inputs,
               std::vector<double>* latencies) {
  data::Dataset dataset("timed-load");
  for (const std::vector<geom::Polygon>* polygons : inputs) {
    for (const geom::Polygon& p : *polygons) {
      latencies->push_back(TimeMs([&] { dataset.Add(p); }));
    }
  }
}

void AddCounters(const core::HwCounters& c,
                 std::map<std::string, int64_t>* counts) {
  (*counts)["hw_tests"] += c.hw_tests;
  (*counts)["hw_rejects"] += c.hw_rejects;
  (*counts)["fill_spans"] += c.fill_spans;
  (*counts)["scan_spans"] += c.scan_spans;
}

bool SameCounters(const core::HwCounters& a, const core::HwCounters& b) {
  return a.tests == b.tests && a.hw_tests == b.hw_tests &&
         a.hw_rejects == b.hw_rejects && a.fill_spans == b.fill_spans &&
         a.scan_spans == b.scan_spans && a.sw_tests == b.sw_tests;
}

// The paper configuration of the per-pair hardware test: 8x8 window,
// sw_threshold 0.
core::HwConfig PaperHwConfig() {
  core::HwConfig hw;
  hw.enable_hw = true;
  hw.resolution = 8;
  hw.sw_threshold = 0;
  return hw;
}

// ---------------------------------------------------------------------------
// land_join: LANDC ⋈ LANDO at fig12's scale, per-pair hw test at 8x8.

constexpr double kLandScale = 0.02;
// Seeded LANDC/LANDO instance pairs per run: one draw of LANDC's
// heavy-tailed vertex counts moves a join's cost by ~8% (coefficient of
// variation), so the median is taken over many draws.
constexpr int kLandInstances = 50;
// Joins of each instance per pass (interleaved across instances); a traced
// run replays and prices every join, so it runs half as many. 100 joins a
// pass put the tail at p90.
constexpr int kLandRepeats = 2;
constexpr double kLandNominalPassS = 8.0;
constexpr int kLandSetupsPerPass = 5;

struct LandInputs {
  std::vector<std::vector<geom::Polygon>> landc;
  std::vector<std::vector<geom::Polygon>> lando;
  std::vector<std::vector<Pair>> reference;  // sorted, software-only
};

struct LandProgram {
  std::vector<std::unique_ptr<data::Dataset>> datasets;  // a0, b0, a1, ...
  std::vector<std::unique_ptr<core::IntersectionJoin>> joins;
};

struct LandReplay {
  std::vector<std::unique_ptr<data::Dataset>> datasets;
  std::vector<index::RTree> trees;
};

LandInputs GenerateLand(uint64_t seed) {
  LandInputs in;
  for (int i = 0; i < kLandInstances; ++i) {
    data::GeneratorProfile landc = data::LandcProfile(kLandScale);
    data::GeneratorProfile lando = data::LandoProfile(kLandScale);
    landc.seed ^= SubSeed(seed, 2 * i);
    lando.seed ^= SubSeed(seed, 2 * i + 1);
    in.landc.push_back(data::GenerateDataset(landc).polygons());
    in.lando.push_back(data::GenerateDataset(lando).polygons());
  }
  return in;
}

LandProgram SetUpLand(const LandInputs& in) {
  LandProgram program;
  for (int i = 0; i < kLandInstances; ++i) {
    program.datasets.push_back(LoadDataset(in.landc[i], "LANDC"));
    program.datasets.push_back(LoadDataset(in.lando[i], "LANDO"));
    program.joins.push_back(std::make_unique<core::IntersectionJoin>(
        *program.datasets[2 * i], *program.datasets[2 * i + 1]));
  }
  return program;
}

core::JoinOptions LandOptions() {
  core::JoinOptions options;
  options.use_hw = true;
  options.hw = PaperHwConfig();
  options.num_threads = 1;
  return options;
}

void ComputeLandReference(LandInputs* in) {
  const LandProgram program = SetUpLand(*in);
  core::JoinOptions software;
  software.use_hw = false;
  software.num_threads = 1;
  for (const auto& join : program.joins) {
    core::JoinResult r = join->Run(software);
    if (!r.status.ok()) {
      std::fprintf(stderr, "reference join failed: %s\n",
                   r.status.message().c_str());
      std::exit(2);
    }
    in->reference.push_back(Sorted(std::move(r.pairs)));
  }
}

void RunLand(const Args& args, Record* rec) {
  LandInputs in = GenerateLand(args.seed);
  const int passes = PassCount(args.seconds, kLandNominalPassS, args.trace);
  const int setups = passes * kLandSetupsPerPass;
  const int ops =
      kLandInstances * (args.trace ? kLandRepeats / 2 : kLandRepeats);
  for (int op = 0; op < ops; ++op) rec->kinds.push_back("join");
  std::vector<const std::vector<geom::Polygon>*> all_inputs;
  for (int i = 0; i < kLandInstances; ++i) {
    all_inputs.push_back(&in.landc[i]);
    all_inputs.push_back(&in.lando[i]);
  }
  for (const auto* polygons : all_inputs) {
    rec->write_kinds.insert(rec->write_kinds.end(), polygons->size(), "insert");
  }
  rec->Reserve(passes, ops, setups, rec->write_kinds.size(), args.trace);
  const double base_mb = ResidentMb();
  ComputeLandReference(&in);
  const core::JoinOptions options = LandOptions();
  const core::HwConfig hw = PaperHwConfig();
  LandProgram program;
  LandReplay replay;
  for (int pass = 0; pass < passes; ++pass) {
    for (int s = SetupsBefore(pass, passes, setups); s > 0; --s) {
      program = LandProgram();
      const Clock::time_point t0 = Clock::now();
      program = SetUpLand(in);
      rec->setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      TimedLoad(all_inputs, &rec->write_ms[rec->setup_s.size() - 1]);
      if (!args.trace) continue;
      replay = LandReplay();
      std::map<std::string, double> spans;
      const Clock::time_point r0 = Clock::now();
      for (int i = 0; i < kLandInstances; ++i) {
        spans["data.load_ms"] += TimeMs([&] {
          replay.datasets.push_back(LoadDataset(in.landc[i], "LANDC"));
          replay.datasets.push_back(LoadDataset(in.lando[i], "LANDO"));
        });
        spans["index.build_ms"] += TimeMs([&] {
          replay.trees.push_back(replay.datasets[2 * i]->BuildRTree());
          replay.trees.push_back(replay.datasets[2 * i + 1]->BuildRTree());
        });
      }
      rec->traced_setup_s.push_back(MsBetween(r0, Clock::now()) / 1e3);
      rec->setup_spans.push_back(std::move(spans));
    }

    std::vector<double>& lat = rec->op_ms[pass];
    std::vector<double>* replay_lat =
        args.trace ? &rec->replay_ms[pass] : nullptr;
    std::map<std::string, double>* acc =
        args.trace ? &rec->layers.emplace_back() : nullptr;
    std::map<std::string, int64_t>* counts =
        args.trace ? &rec->counts.emplace_back() : nullptr;
    for (int op = 0; op < ops; ++op) {
      const int i = op % kLandInstances;
      const Clock::time_point t0 = Clock::now();
      core::JoinResult r = program.joins[i]->Run(options);
      lat.push_back(MsBetween(t0, Clock::now()));

      if (args.inject_mismatch && pass == 0 && op == 0) {
        r.pairs.emplace_back(-1, -1);
      }
      bool ok = r.status.ok() && Sorted(r.pairs) == in.reference[i];
      std::string what = "land_join instance " + std::to_string(i) +
                         ": result differs from the software join";
      if (args.trace) {
        const data::Dataset& a = *replay.datasets[2 * i];
        const data::Dataset& b = *replay.datasets[2 * i + 1];
        const Clock::time_point r0 = Clock::now();
        std::vector<Pair> candidates;
        (*acc)["index.join_ms"] += TimeMs([&] {
          candidates =
              index::JoinIntersects(replay.trees[2 * i], replay.trees[2 * i + 1]);
        });
        core::HwIntersectionTester tester(hw);
        std::vector<Pair> accepted;
        std::vector<uint8_t> verdicts;
        verdicts.reserve(candidates.size());
        double hw_ms = 0.0;
        for (const Pair& c : candidates) {
          bool hit = false;
          hw_ms += TimeMs([&] {
            hit = tester.Test(a.polygon(static_cast<size_t>(c.first)),
                              b.polygon(static_cast<size_t>(c.second)));
          });
          verdicts.push_back(hit ? 1 : 0);
          if (hit) accepted.push_back(c);
        }
        replay_lat->push_back(MsBetween(r0, Clock::now()));
        (*acc)["core.hw.test_ms"] += hw_ms;
        (*acc)["hw.pairs"] += static_cast<double>(candidates.size());

        // Exact software cost of the same candidates, outside the op.
        double exact_ms = 0.0;
        bool exact_agrees = true;
        for (size_t k = 0; k < candidates.size(); ++k) {
          bool hit = false;
          exact_ms += TimeMs([&] {
            hit = algo::PolygonsIntersect(
                a.polygon(static_cast<size_t>(candidates[k].first)),
                b.polygon(static_cast<size_t>(candidates[k].second)));
          });
          exact_agrees = exact_agrees && (hit == (verdicts[k] != 0));
        }
        (*acc)["algo.exact_ms"] += exact_ms;
        (*acc)["exact.pairs"] += static_cast<double>(candidates.size());
        (*acc)["op.pipeline_ms"] += lat.back();

        const core::HwCounters& tc = tester.counters();
        AddCounters(tc, counts);
        (*counts)["candidates"] += static_cast<int64_t>(candidates.size());
        (*counts)["results"] += static_cast<int64_t>(accepted.size());
        const bool faithful =
            accepted == r.pairs && exact_agrees &&
            r.counts.candidates == static_cast<int64_t>(candidates.size()) &&
            SameCounters(tc, r.hw_counters);
        if (ok && !faithful) {
          what = "land_join instance " + std::to_string(i) +
                 ": replay differs from the pipeline's result or counts";
        }
        ok = ok && faithful;
      }
      rec->Outcome(ok, what);
    }
  }
  rec->rss_mb = PeakResidentMb() - base_mb;
}

// ---------------------------------------------------------------------------
// water_select: selections over WATER with the interval filter and the
// per-pair hw test at 8x8.

constexpr double kWaterScale = 0.2;
constexpr int kWaterQueries = 2000;
constexpr double kWaterNominalPassS = 0.9;
constexpr int kWaterSetups = 5;

struct QueryClass {
  const char* kind;
  int per_thousand;      // share of the op list
  double radius_frac;    // blob radius / extent width
  int vertices;
};

// Heavy-tailed size mix with fixed shares, so every seed has the same
// number of large queries and the tail is taken over the same population.
constexpr QueryClass kWaterClasses[] = {
    {"small", 880, 0.012, 16},
    {"medium", 100, 0.03, 32},
    {"large", 20, 0.08, 64},
};

struct WaterInputs {
  std::vector<geom::Polygon> water;
  std::vector<geom::Polygon> queries;
  std::vector<std::string> kinds;
  std::vector<std::vector<int64_t>> reference;  // sorted, software-only
};

struct WaterProgram {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::IntersectionSelection> selection;
};

struct WaterReplay {
  std::unique_ptr<data::Dataset> dataset;
  std::optional<index::RTree> tree;
  std::optional<filter::IntervalApprox> intervals;
};

core::SelectionOptions WaterOptions() {
  core::SelectionOptions options;
  options.use_hw = true;
  options.hw = PaperHwConfig();
  options.hw.use_intervals = true;
  options.num_threads = 1;
  return options;
}

filter::IntervalApproxConfig WaterIntervalConfig() {
  const core::HwConfig hw = WaterOptions().hw;
  filter::IntervalApproxConfig config;
  config.grid_bits = hw.interval_grid_bits;
  config.memory_budget_bytes = hw.interval_budget_bytes;
  config.num_threads = 1;
  return config;
}

WaterInputs GenerateWater(uint64_t seed) {
  WaterInputs in;
  // WATER itself is the catalog's fixed stand-in, as the paper's dataset
  // is fixed: its 24 seeded clusters would move the median by ~10% from
  // one draw to the next. The seed draws the queries.
  in.water = data::GenerateDataset(data::WaterProfile(kWaterScale)).polygons();
  geom::Box extent = geom::Box::Empty();
  for (const geom::Polygon& p : in.water) extent.Extend(p.Bounds());

  // Each class is spread over the extent on its own, so the few large
  // queries that set the tail cover it as evenly as the small ones.
  Rng rng(SubSeed(seed, 101));
  struct Planned {
    const QueryClass* query_class;
    geom::Point center;
  };
  std::vector<Planned> order;
  for (const QueryClass& c : kWaterClasses) {
    const size_t count =
        static_cast<size_t>(c.per_thousand * kWaterQueries / 1000);
    for (const geom::Point& center : StratifiedCenters(extent, count, &rng)) {
      order.push_back({&c, center});
    }
  }
  for (size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.Below(k)]);
  }
  const double width = extent.Width();
  for (size_t q = 0; q < order.size(); ++q) {
    const QueryClass& c = *order[q].query_class;
    in.queries.push_back(data::GenerateBlobPolygon(
        order[q].center, c.radius_frac * width, c.vertices, 0.3,
        SubSeed(seed, 1000 + q)));
    in.kinds.push_back(c.kind);
  }
  return in;
}

// A tiny query outside the dataset extent: running it makes the
// selection build its interval approximation without selecting anything.
geom::Polygon OffExtentQuery(const data::Dataset& dataset) {
  const geom::Box& e = dataset.Bounds();
  const double x = e.max_x + e.Width();
  const double y = e.max_y + e.Height();
  return geom::Polygon({{x, y}, {x + 1e-3, y}, {x, y + 1e-3}});
}

WaterProgram SetUpWater(const WaterInputs& in,
                        const core::SelectionOptions& options) {
  WaterProgram program;
  program.dataset = LoadDataset(in.water, "WATER");
  program.selection =
      std::make_unique<core::IntersectionSelection>(*program.dataset);
  const core::SelectionResult warm =
      program.selection->Run(OffExtentQuery(*program.dataset), options);
  if (!warm.status.ok() || !warm.ids.empty()) {
    std::fprintf(stderr, "water_select set-up query failed\n");
    std::exit(2);
  }
  return program;
}

void ComputeWaterReference(WaterInputs* in) {
  core::SelectionOptions software;
  software.use_hw = false;
  software.num_threads = 1;
  const WaterProgram program = SetUpWater(*in, software);
  for (const geom::Polygon& query : in->queries) {
    core::SelectionResult r = program.selection->Run(query, software);
    if (!r.status.ok()) {
      std::fprintf(stderr, "reference selection failed: %s\n",
                   r.status.message().c_str());
      std::exit(2);
    }
    in->reference.push_back(Sorted(std::move(r.ids)));
  }
}

void RunWater(const Args& args, Record* rec) {
  WaterInputs in = GenerateWater(args.seed);
  const int passes = PassCount(args.seconds, kWaterNominalPassS, args.trace);
  const int setups = std::min(passes, kWaterSetups);
  rec->kinds = in.kinds;
  rec->write_kinds.assign(in.water.size(), "insert");
  rec->Reserve(passes, in.queries.size(), passes, in.water.size(), args.trace);
  const double base_mb = ResidentMb();
  ComputeWaterReference(&in);
  const core::SelectionOptions options = WaterOptions();
  const core::HwConfig hw = options.hw;

  WaterProgram program;
  WaterReplay replay;
  for (int pass = 0; pass < passes; ++pass) {
    for (int s = SetupsBefore(pass, passes, setups); s > 0; --s) {
      program = WaterProgram();
      const Clock::time_point t0 = Clock::now();
      program = SetUpWater(in, options);
      rec->setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      if (!args.trace) continue;
      replay = WaterReplay();
      std::map<std::string, double> spans;
      const Clock::time_point r0 = Clock::now();
      spans["data.load_ms"] =
          TimeMs([&] { replay.dataset = LoadDataset(in.water, "WATER"); });
      spans["index.build_ms"] =
          TimeMs([&] { replay.tree.emplace(replay.dataset->BuildRTree()); });
      bool built = false;
      spans["filter.interval.build_ms"] = TimeMs([&] {
        Result<filter::IntervalApprox> approx = filter::BuildIntervalApprox(
            replay.dataset->polygons(), replay.dataset->Bounds(),
            WaterIntervalConfig());
        if (approx.ok()) {
          replay.intervals.emplace(std::move(approx).value());
          built = true;
        }
      });
      if (!built) {
        std::fprintf(stderr, "interval build failed\n");
        std::exit(2);
      }
      rec->traced_setup_s.push_back(MsBetween(r0, Clock::now()) / 1e3);
      rec->setup_spans.push_back(std::move(spans));
    }
    TimedLoad({&in.water}, &rec->write_ms[pass]);

    std::vector<double>& lat = rec->op_ms[pass];
    std::vector<double>* replay_lat =
        args.trace ? &rec->replay_ms[pass] : nullptr;
    std::map<std::string, double>* acc =
        args.trace ? &rec->layers.emplace_back() : nullptr;
    std::map<std::string, int64_t>* counts =
        args.trace ? &rec->counts.emplace_back() : nullptr;
    for (size_t q = 0; q < in.queries.size(); ++q) {
      const geom::Polygon& query = in.queries[q];
      const Clock::time_point t0 = Clock::now();
      core::SelectionResult r = program.selection->Run(query, options);
      lat.push_back(MsBetween(t0, Clock::now()));

      if (args.inject_mismatch && pass == 0 && q == 0) r.ids.push_back(-1);
      bool ok = r.status.ok() && Sorted(r.ids) == in.reference[q];
      std::string what = "water_select query " + std::to_string(q) +
                         ": result differs from the software selection";
      if (args.trace) {
        const data::Dataset& ds = *replay.dataset;
        const Clock::time_point r0 = Clock::now();
        std::vector<int64_t> ids;
        (*acc)["index.probe_ms"] +=
            TimeMs([&] { ids = replay.tree->QueryIntersects(query.Bounds()); });
        filter::ObjectIntervals query_intervals;
        (*acc)["filter.interval.query_ms"] += TimeMs(
            [&] { query_intervals = replay.intervals->ApproximateObject(query); });
        std::vector<int64_t> accepted;
        std::vector<int64_t> undecided;
        std::vector<int8_t> decided(ids.size(), -1);  // -1 open, 0 miss, 1 hit
        int64_t hits = 0;
        int64_t misses = 0;
        (*acc)["filter.interval.decide_ms"] += TimeMs([&] {
          for (size_t k = 0; k < ids.size(); ++k) {
            switch (filter::DecidePair(
                query_intervals,
                replay.intervals->object(static_cast<size_t>(ids[k])))) {
              case filter::IntervalVerdict::kHit:
                accepted.push_back(ids[k]);
                decided[k] = 1;
                ++hits;
                break;
              case filter::IntervalVerdict::kMiss:
                decided[k] = 0;
                ++misses;
                break;
              case filter::IntervalVerdict::kInconclusive:
                undecided.push_back(ids[k]);
                break;
            }
          }
        });
        core::HwIntersectionTester tester(hw);
        double hw_ms = 0.0;
        for (const int64_t id : undecided) {
          bool hit = false;
          hw_ms += TimeMs([&] {
            hit = tester.Test(ds.polygon(static_cast<size_t>(id)), query);
          });
          if (hit) accepted.push_back(id);
        }
        replay_lat->push_back(MsBetween(r0, Clock::now()));
        (*acc)["core.hw.test_ms"] += hw_ms;
        (*acc)["hw.pairs"] += static_cast<double>(undecided.size());

        // Exact software cost of every candidate, outside the op; the
        // decided ones price what the interval filter saved.
        bool exact_agrees = true;
        for (size_t k = 0; k < ids.size(); ++k) {
          bool hit = false;
          const double ms = TimeMs([&] {
            hit = algo::PolygonsIntersect(
                ds.polygon(static_cast<size_t>(ids[k])), query);
          });
          (*acc)["algo.exact_ms"] += ms;
          if (decided[k] >= 0) {
            (*acc)["exact.decided_ms"] += ms;
            exact_agrees = exact_agrees && (hit == (decided[k] == 1));
          }
        }
        (*acc)["exact.pairs"] += static_cast<double>(ids.size());
        (*acc)["interval.decided"] += static_cast<double>(hits + misses);
        (*acc)["op.pipeline_ms"] += lat.back();

        const core::HwCounters& tc = tester.counters();
        AddCounters(tc, counts);
        (*counts)["candidates"] += static_cast<int64_t>(ids.size());
        (*counts)["interval_hits"] += hits;
        (*counts)["interval_misses"] += misses;
        (*counts)["results"] += static_cast<int64_t>(accepted.size());
        const bool faithful =
            accepted == r.ids && exact_agrees &&
            r.counts.candidates == static_cast<int64_t>(ids.size()) &&
            r.interval_hits == hits && r.interval_misses == misses &&
            SameCounters(tc, r.hw_counters);
        if (ok && !faithful) {
          what = "water_select query " + std::to_string(q) +
                 ": replay differs from the pipeline's result or counts";
        }
        ok = ok && faithful;
      }
      rec->Outcome(ok, what);
    }
  }
  rec->rss_mb = PeakResidentMb() - base_mb;
}

// ---------------------------------------------------------------------------
// store_serve: one closed-loop client against a one-worker QueryServer over
// a VersionedDataset, with inserts and deletes applied between queries.

constexpr int64_t kStoreObjects = 20000;
// bench/serve's object density: 4000 objects per 400 x 400 at scale 1.
constexpr double kServeDensity = 4000.0 / (400.0 * 400.0);
constexpr double kProbeHalf = 24.0;  // fixed 48 x 48 windows, as bench/serve
constexpr double kStoreDistance = 6.0;
constexpr int kStoreQueries = 600;  // each followed by one write
constexpr double kStoreNominalPassS = 0.3;
constexpr int kStoreSetupsPerPass = 3;

struct StoreOp {
  enum class Kind { kSelection, kDistance, kWrite };
  Kind kind = Kind::kSelection;
  geom::Polygon query;  // queries
  size_t write = 0;     // index into the update stream
};

struct StoreInputs {
  data::Dataset seed_objects;
  std::vector<data::UpdateOp> updates;
  std::vector<StoreOp> ops;
  size_t capacity = 0;
};

// The server is declared after the store it reads, so it is shut down
// and destroyed first.
struct StoreProgram {
  std::unique_ptr<data::VersionedDataset> store;
  std::unique_ptr<core::QueryServer> server;
};

core::ServerConfig StoreServerConfig() {
  core::ServerConfig config;
  config.num_workers = 1;
  config.options.use_hw = true;
  config.options.hw.use_batching = true;
  config.options.degrade = core::DegradeLevel::kNone;
  config.verify_every = 0;
  return config;
}

StoreInputs GenerateStore(uint64_t seed) {
  StoreInputs in;
  const double extent =
      std::sqrt(static_cast<double>(kStoreObjects) / kServeDensity);
  data::GeneratorProfile profile;
  profile.name = "store";
  profile.count = kStoreObjects;
  profile.mean_vertices = 12;
  profile.max_vertices = 48;
  profile.extent = geom::Box(0, 0, extent, extent);
  profile.seed = SubSeed(seed, 200);
  in.seed_objects = data::GenerateDataset(profile);

  data::UpdateStreamProfile stream;
  stream.objects = profile;
  stream.operations = kStoreQueries;
  stream.insert_fraction = 0.5;
  stream.seed = SubSeed(seed, 201);
  in.updates = data::GenerateUpdateStream(stream);
  in.capacity = static_cast<size_t>(kStoreObjects) + in.updates.size();

  Rng rng(SubSeed(seed, 202));
  const double far = extent - kProbeHalf;
  const std::vector<geom::Point> centers = StratifiedCenters(
      geom::Box(kProbeHalf, kProbeHalf, far, far), kStoreQueries, &rng);
  for (int q = 0; q < kStoreQueries; ++q) {
    StoreOp op;
    op.kind = (q % 3 == 2) ? StoreOp::Kind::kDistance
                           : StoreOp::Kind::kSelection;
    const double cx = centers[q].x;
    const double cy = centers[q].y;
    op.query = geom::Polygon({{cx - kProbeHalf, cy - kProbeHalf},
                              {cx + kProbeHalf, cy - kProbeHalf},
                              {cx + kProbeHalf, cy + kProbeHalf},
                              {cx - kProbeHalf, cy + kProbeHalf}});
    in.ops.push_back(std::move(op));
    StoreOp write;
    write.kind = StoreOp::Kind::kWrite;
    write.write = static_cast<size_t>(q);
    in.ops.push_back(std::move(write));
  }
  return in;
}

void SetUpStore(const StoreInputs& in, StoreProgram* program,
                std::map<std::string, double>* spans) {
  const auto step = [&](const char* span, auto&& f) {
    const double ms = TimeMs(f);
    if (spans != nullptr) (*spans)[span] += ms;
  };
  step("data.seed_ms", [&] {
    program->store =
        std::make_unique<data::VersionedDataset>("store", in.capacity);
    if (!program->store->SeedFrom(in.seed_objects).ok()) {
      std::fprintf(stderr, "store seed failed\n");
      std::exit(2);
    }
  });
  step("core.server.start_ms", [&] {
    program->server = std::make_unique<core::QueryServer>(
        program->store.get(), StoreServerConfig());
    if (!program->server->Start().ok()) {
      std::fprintf(stderr, "server start failed\n");
      std::exit(2);
    }
  });
}

const char* StoreKindName(StoreOp::Kind kind) {
  switch (kind) {
    case StoreOp::Kind::kSelection:
      return "selection";
    case StoreOp::Kind::kDistance:
      return "distance";
    case StoreOp::Kind::kWrite:
      return "write";
  }
  return "?";
}

// Replays one store query as direct layer calls on a snapshot of the same
// version the server pinned; returns false if the result or the integer
// counts differ from the server's.
bool ReplayStoreQuery(const StoreOp& op, const data::VersionedDataset& store,
                      const core::QueryResponse& response,
                      std::map<std::string, double>* acc,
                      std::map<std::string, int64_t>* counts,
                      double* replay_ms) {
  const bool distance = op.kind == StoreOp::Kind::kDistance;
  const geom::Box window = op.query.Bounds();
  const Clock::time_point r0 = Clock::now();
  data::VersionedDataset::Snapshot snap;
  (*acc)["data.snapshot_ms"] += TimeMs([&] { snap = store.snapshot(); });
  std::vector<int64_t> ids;
  (*acc)["index.dyn.probe_ms"] += TimeMs([&] {
    ids = distance ? snap.QueryWithinDistance(window, kStoreDistance)
                   : snap.QueryIntersects(window);
  });
  std::vector<int64_t> accepted;
  std::vector<int64_t> undecided;
  if (distance) {
    (*acc)["filter.object_ms"] += TimeMs([&] {
      for (const int64_t id : ids) {
        const geom::Box& mbr = snap.mbr(id);
        if (filter::ZeroObjectUpperBound(mbr, window) <= kStoreDistance ||
            filter::OneObjectUpperBound(op.query, mbr) <= kStoreDistance) {
          accepted.push_back(id);
        } else {
          undecided.push_back(id);
        }
      }
    });
    (*acc)["object.candidates"] += static_cast<double>(ids.size());
    (*acc)["object.decided"] += static_cast<double>(accepted.size());
    (*counts)["object_accepts"] += static_cast<int64_t>(accepted.size());
  } else {
    undecided = ids;
  }
  const core::ServerConfig config = StoreServerConfig();
  core::BatchHardwareTester tester(core::DegradedHwConfig(
      config.options.hw, config.options.use_hw, core::DegradeLevel::kNone));
  std::vector<core::PolygonPair> pairs;
  pairs.reserve(undecided.size());
  for (const int64_t id : undecided) {
    pairs.push_back(core::PolygonPair{&snap.polygon(id), &op.query});
  }
  std::vector<uint8_t> verdicts(pairs.size(), 0);
  if (!pairs.empty()) {
    (*acc)["core.batch_ms"] += TimeMs([&] {
      if (distance) {
        tester.TestWithinDistanceBatch(pairs, kStoreDistance, verdicts.data());
      } else {
        tester.TestIntersectionBatch(pairs, verdicts.data());
      }
    });
  }
  for (size_t k = 0; k < undecided.size(); ++k) {
    if (verdicts[k] != 0) accepted.push_back(undecided[k]);
  }
  *replay_ms = MsBetween(r0, Clock::now());
  (*acc)["batch.pairs"] += static_cast<double>(pairs.size());

  // The same query through the snapshot query layer, without the server.
  (*acc)["direct_ms"] += TimeMs([&] {
    const core::SnapshotQueryResult direct =
        distance ? core::SnapshotDistanceSelection(snap, op.query,
                                                   kStoreDistance,
                                                   config.options)
                 : core::SnapshotSelection(snap, op.query, config.options);
    (void)direct;
  });

  const core::HwCounters tc = tester.counters();
  AddCounters(tc, counts);
  (*counts)["candidates"] += static_cast<int64_t>(ids.size());
  (*counts)["results"] += static_cast<int64_t>(accepted.size());
  return accepted == response.result.ids &&
         response.epoch == snap.epoch() &&
         response.result.candidates == static_cast<int64_t>(ids.size()) &&
         SameCounters(tc, response.result.hw_counters);
}

// Keeps the client and the server's worker (which inherits the mask) on the
// CPU the process is running on. The loop is closed and serial, so nothing
// runs in parallel anyway; on one CPU the admission hand-off is a context
// switch instead of a cross-CPU wake-up, whose latency follows the host's
// load from minute to minute.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void RunStore(const Args& args, Record* rec) {
  PinToCurrentCpu();
  const StoreInputs in = GenerateStore(args.seed);
  const int passes = PassCount(args.seconds, kStoreNominalPassS, args.trace);
  const int setups = passes * kStoreSetupsPerPass;
  for (const StoreOp& op : in.ops) {
    rec->kinds.push_back(StoreKindName(op.kind));
    if (op.kind == StoreOp::Kind::kWrite) {
      rec->write_kinds.push_back(
          in.updates[op.write].kind == data::UpdateOp::Kind::kInsert
              ? "insert"
              : "delete");
    }
  }
  rec->Reserve(passes, in.ops.size(), passes, rec->write_kinds.size(),
               args.trace);
  std::vector<std::vector<int64_t>> oracle(in.ops.size());
  std::vector<uint64_t> oracle_epoch(in.ops.size(), 0);
  const double base_mb = ResidentMb();

  for (int pass = 0; pass < passes; ++pass) {
    // Every pass starts from a freshly seeded store, so each query sees
    // the same store version in every pass and every run.
    StoreProgram program;
    for (int s = SetupsBefore(pass, passes, setups); s > 0; --s) {
      program = StoreProgram();
      const Clock::time_point t0 = Clock::now();
      SetUpStore(in, &program, nullptr);
      rec->setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      if (!args.trace) continue;
      StoreProgram traced;
      std::map<std::string, double> spans;
      const Clock::time_point r0 = Clock::now();
      SetUpStore(in, &traced, &spans);
      rec->traced_setup_s.push_back(MsBetween(r0, Clock::now()) / 1e3);
      rec->setup_spans.push_back(std::move(spans));
    }
    data::VersionedDataset& store = *program.store;
    std::unordered_map<int64_t, int64_t> key_to_id;

    std::vector<double>& lat = rec->op_ms[pass];
    std::vector<double>& write_lat = rec->write_ms[pass];
    std::vector<double>* replay_lat =
        args.trace ? &rec->replay_ms[pass] : nullptr;
    std::map<std::string, double>* acc =
        args.trace ? &rec->layers.emplace_back() : nullptr;
    std::map<std::string, int64_t>* counts =
        args.trace ? &rec->counts.emplace_back() : nullptr;
    for (size_t k = 0; k < in.ops.size(); ++k) {
      const StoreOp& op = in.ops[k];
      if (op.kind == StoreOp::Kind::kWrite) {
        const data::UpdateOp& update = in.updates[op.write];
        const size_t live_before = store.live();
        bool ok = false;
        double ms = 0.0;
        if (update.kind == data::UpdateOp::Kind::kInsert) {
          Result<int64_t> id = Status::Internal("not run");
          ms = TimeMs([&] { id = store.Insert(update.polygon); });
          ok = id.ok();
          if (ok) key_to_id[update.key] = id.value();
          if (args.trace) {
            (*acc)["data.insert_ms"] += ms;
            (*acc)["inserts"] += 1;
            ++(*counts)["inserts"];
          }
        } else {
          const auto it = key_to_id.find(update.key);
          ok = it != key_to_id.end();
          if (ok) {
            const int64_t id = it->second;
            key_to_id.erase(it);
            Status s;
            ms = TimeMs([&] { s = store.Delete(id); });
            ok = s.ok();
          }
          if (args.trace) {
            (*acc)["data.delete_ms"] += ms;
            (*acc)["deletes"] += 1;
            ++(*counts)["deletes"];
          }
        }
        lat.push_back(ms);
        write_lat.push_back(ms);
        if (args.trace) replay_lat->push_back(ms);
        const size_t expected =
            update.kind == data::UpdateOp::Kind::kInsert ? live_before + 1
                                                         : live_before - 1;
        rec->Outcome(ok && store.live() == expected,
                     "store_serve write " + std::to_string(op.write) +
                         " failed or left the live count wrong");
        continue;
      }

      core::QueryRequest request;
      request.kind = op.kind == StoreOp::Kind::kDistance
                         ? core::QueryKind::kDistanceSelection
                         : core::QueryKind::kSelection;
      request.query = op.query;
      request.distance = kStoreDistance;
      const Clock::time_point t0 = Clock::now();
      core::QueryResponse response = program.server->Execute(request);
      lat.push_back(MsBetween(t0, Clock::now()));

      if (args.inject_mismatch && pass == 0 && k == 0) {
        response.result.ids.push_back(-1);
      }
      // Oracle on a snapshot pinned right after the op: no write can
      // intervene on this thread, so it is the version the query saw.
      // Every pass replays the same writes, so the op sees the same version
      // (epoch) in each pass and the first pass's oracle answers them all.
      const data::VersionedDataset::Snapshot snap = store.snapshot();
      if (pass == 0) {
        oracle[k] = request.kind == core::QueryKind::kDistanceSelection
                        ? core::OracleDistanceSelection(snap, op.query,
                                                        kStoreDistance)
                        : core::OracleSelection(snap, op.query);
        oracle_epoch[k] = snap.epoch();
      }
      bool ok = response.status.ok() && response.degrade ==
                                            core::DegradeLevel::kNone &&
                response.epoch == snap.epoch() &&
                snap.epoch() == oracle_epoch[k] &&
                Sorted(response.result.ids) == oracle[k];
      std::string what = "store_serve op " + std::to_string(k) +
                         ": result differs from the oracle";
      if (args.trace) {
        double replay = 0.0;
        const bool faithful = ReplayStoreQuery(op, store, response, acc,
                                               counts, &replay);
        replay_lat->push_back(replay);
        (*acc)["server.wait_ms"] += response.wait_ms;
        (*acc)["op.pipeline_ms"] += lat.back();
        (*acc)["queries"] += 1;
        if (ok && !faithful) {
          what = "store_serve op " + std::to_string(k) +
                 ": replay differs from the server's result or counts";
        }
        ok = ok && faithful;
      }
      rec->Outcome(ok, what);
    }
  }
  rec->rss_mb = PeakResidentMb() - base_mb;
}

// ---------------------------------------------------------------------------

std::string ToJson(const Args& args, const Record& rec) {
  std::string out;
  obs::JsonWriter w(&out);
  const auto doubles = [&w](const std::vector<double>& v) {
    w.BeginArray();
    for (const double x : v) w.Double(x);
    w.EndArray();
  };
  const auto double_map = [&w](const std::map<std::string, double>& m) {
    w.BeginObject();
    for (const auto& [k, v] : m) {
      w.Key(k);
      w.Double(v);
    }
    w.EndObject();
  };
  w.BeginObject();
  w.Key("workload");
  w.String(args.workload);
  w.Key("seed");
  w.Int(static_cast<int64_t>(args.seed));
  w.Key("trace");
  w.Bool(args.trace);
  w.Key("passes");
  w.Int(static_cast<int64_t>(rec.op_ms.size()));
  w.Key("kinds");
  w.BeginArray();
  for (const std::string& k : rec.kinds) w.String(k);
  w.EndArray();
  w.Key("setup_s");
  doubles(rec.setup_s);
  w.Key("traced_setup_s");
  doubles(rec.traced_setup_s);
  w.Key("setup_spans");
  w.BeginArray();
  for (const auto& m : rec.setup_spans) double_map(m);
  w.EndArray();
  w.Key("op_ms");
  w.BeginArray();
  for (const auto& v : rec.op_ms) doubles(v);
  w.EndArray();
  w.Key("replay_ms");
  w.BeginArray();
  for (const auto& v : rec.replay_ms) doubles(v);
  w.EndArray();
  w.Key("write_ms");
  w.BeginArray();
  for (const auto& v : rec.write_ms) doubles(v);
  w.EndArray();
  w.Key("write_kinds");
  w.BeginArray();
  for (const std::string& k : rec.write_kinds) w.String(k);
  w.EndArray();
  w.Key("layers");
  w.BeginArray();
  for (const auto& m : rec.layers) double_map(m);
  w.EndArray();
  w.Key("counts");
  w.BeginArray();
  for (const auto& m : rec.counts) {
    w.BeginObject();
    for (const auto& [k, v] : m) {
      w.Key(k);
      w.Int(v);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("attempted");
  w.Int(rec.attempted);
  w.Key("ok");
  w.Int(rec.ok);
  w.Key("problems");
  w.BeginArray();
  for (const std::string& p : rec.problems) w.String(p);
  w.EndArray();
  w.Key("rss_mb");
  w.Double(rec.rss_mb);
  w.EndObject();
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload land_join|water_select|store_serve "
               "--seed N --seconds S --trace 0|1 [--inject-mismatch]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        return Usage(argv[0]);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage(argv[0]);
      args.trace = value == "1";
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || args.seconds <= 0) return Usage(argv[0]);

  Record rec;
  if (args.workload == "land_join") {
    RunLand(args, &rec);
  } else if (args.workload == "water_select") {
    RunWater(args, &rec);
  } else if (args.workload == "store_serve") {
    RunStore(args, &rec);
  } else {
    return Usage(argv[0]);
  }
  std::printf("%s\n", ToJson(args, rec).c_str());
  return 0;
}

}  // namespace
}  // namespace hasj::layerbench

int main(int argc, char** argv) { return hasj::layerbench::Main(argc, argv); }
