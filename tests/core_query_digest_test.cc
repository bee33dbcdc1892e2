// Verdict-and-counter digests of all eight query forms: the four offline
// pipelines and the four snapshot forms of the serving path. Each row runs
// one configuration and hashes (FNV-1a 64) everything a query reports, in
// two digests. The verdict digest takes what must not move under any
// refactor of the query core or the testers: the in-order result list
// (filter accepts in candidate order, then refined accepts), the
// StageCounts, every filter tally, every integer HwCounters field but the
// four row-span work counters, and the status code. The work digest takes
// those four (fill_spans, scan_spans, fill_saturation_stops,
// scan_hit_stops): they count the hardware step's work, which a faster
// step may change without changing a verdict. Wall-clock fields are left
// out.
//
// The fields of the verdict digest have been pinned since before the
// eight per-form query loops were merged into one stage skeleton; a change
// to any verdict digest is a change in behaviour, not a refactor. Offline
// rows also run at num_threads 1 and 3 and must agree (the threaded rows
// run under scripts/check_tsan.sh). In a -DHASJ_PARANOID=ON build every
// interval accept and reject, every hardware reject and every "no
// crossing" of the exact engine these rows make is oracle-checked.
//
// Every row runs the paper's plan (HwRouting::kStatic). Each intersection
// row that runs the hardware step (per-pair rows, offline and at L0/L2)
// also has a routed twin ("<row>/routed", HwRouting::kByCost) with goldens
// of its own: the twin must return the static row's result list,
// StageCounts and status, and send to cost_skips exactly the pairs the
// static row sends to the hardware step.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_join.h"
#include "core/distance_selection.h"
#include "core/join.h"
#include "core/selection.h"
#include "core/snapshot_query.h"
#include "data/generator.h"
#include "data/versioned_dataset.h"
#include "filter/slot_interval_grid.h"

namespace hasj::core {
namespace {

constexpr double kExtent = 70.0;
constexpr double kDistances[] = {0.0, 1.5};

// FNV-1a 64 over the fields above, kept as two streams: `verdict` takes
// every field but the work counters, and `work` the work counters. A third
// stream, `outcome`, repeats the result lists, StageCounts, candidate
// counts and status codes, which a routed twin must share with its static
// row; `hw_bound` sums the pairs sent to the hardware step or to
// cost_skips (cost_skips itself stays outside both digests).
class Fnv1a {
 public:
  void Add(int64_t v) { Mix(&verdict_, v); }
  void AddOutcome(int64_t v) {
    Mix(&verdict_, v);
    Mix(&outcome_, v);
  }
  void Add(const std::vector<int64_t>& ids) {
    AddOutcome(static_cast<int64_t>(ids.size()));
    for (const int64_t id : ids) AddOutcome(id);
  }
  void Add(const std::vector<std::pair<int64_t, int64_t>>& pairs) {
    AddOutcome(static_cast<int64_t>(pairs.size()));
    for (const auto& [a, b] : pairs) {
      AddOutcome(a);
      AddOutcome(b);
    }
  }
  void Add(const StageCounts& c) {
    AddOutcome(c.candidates);
    AddOutcome(c.filter_hits);
    AddOutcome(c.compared);
    AddOutcome(c.results);
    AddOutcome(c.truncated ? 1 : 0);
  }
  void Add(const HwCounters& c) {
    hw_bound_ += c.hw_tests + c.hw_fallback_pairs + c.cost_skips;
    for (const int64_t v :
         {c.tests, c.mbr_misses, c.pip_hits, c.sw_threshold_skips, c.hw_tests,
          c.hw_rejects, c.sw_tests, c.width_fallbacks, c.hw_faults,
          c.hw_fallback_pairs, c.breaker_opens}) {
      Add(v);
    }
    for (const int64_t v : {c.fill_spans, c.scan_spans,
                            c.fill_saturation_stops, c.scan_hit_stops}) {
      Mix(&work_, v);
    }
    // The goldens were recorded with two more fields here, the atlas pass
    // and pair counts; both were zero on every row this table keeps.
    Add(int64_t{0});
    Add(int64_t{0});
  }
  void Add(const Status& s) { AddOutcome(static_cast<int64_t>(s.code())); }

  uint64_t verdict() const { return verdict_; }
  uint64_t work() const { return work_; }
  uint64_t outcome() const { return outcome_; }
  int64_t hw_bound() const { return hw_bound_; }

 private:
  static void Mix(uint64_t* hash, int64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      *hash ^= static_cast<uint64_t>(v >> (8 * byte)) & 0xffu;
      *hash *= 0x100000001b3ull;
    }
  }

  uint64_t verdict_ = 0xcbf29ce484222325ull;
  uint64_t work_ = 0xcbf29ce484222325ull;
  uint64_t outcome_ = 0xcbf29ce484222325ull;
  int64_t hw_bound_ = 0;
};

data::Dataset MakeDataset(uint64_t seed, int count, double coverage) {
  data::GeneratorProfile p;
  p.name = "digest";
  p.count = count;
  p.mean_vertices = 20;
  p.max_vertices = 90;
  p.extent = geom::Box(0, 0, kExtent, kExtent);
  p.coverage = coverage;
  p.snake_fraction = 0.4;
  p.seed = seed;
  return data::GenerateDataset(p);
}

struct Corpus {
  data::Dataset a = MakeDataset(1701, 90, 0.6);
  data::Dataset b = MakeDataset(1702, 70, 0.6);
  // Six queries larger than a typical object and six smaller, so both
  // sides of every size-dependent rule (the 1-Object bound, the fill side
  // of the per-pair tester) are exercised.
  std::vector<geom::Polygon> queries = [] {
    const data::Dataset large = MakeDataset(1703, 12, 0.6);
    const data::Dataset small = MakeDataset(1704, 360, 0.6);
    std::vector<geom::Polygon> out;
    for (size_t i = 0; i < 6; ++i) {
      out.push_back(large.polygon(i));
      out.push_back(small.polygon(i * 7));
    }
    return out;
  }();
};

const Corpus& TheCorpus() {
  static const Corpus* corpus = new Corpus();
  return *corpus;
}

// A LANDC-like corpus of large polygons (100 to 2,000 vertices, 40%
// snakes, a few dozen per side): most of its polygons span many 32-edge
// chains, where the rows above rarely reach a second one. Its queries are
// polygons of a third draw, large and small alike.
data::Dataset MakeLargeDataset(uint64_t seed, int count) {
  data::GeneratorProfile p;
  p.name = "digest-large";
  p.count = count;
  p.min_vertices = 100;
  p.mean_vertices = 400;
  p.max_vertices = 2000;
  p.extent = geom::Box(0, 0, kExtent, kExtent);
  p.coverage = 1.2;
  p.snake_fraction = 0.4;
  p.seed = seed;
  return data::GenerateDataset(p);
}

const Corpus& TheLargeCorpus() {
  static const Corpus* corpus = new Corpus{
      .a = MakeLargeDataset(1801, 36),
      .b = MakeLargeDataset(1802, 30),
      .queries = [] {
        const data::Dataset q = MakeLargeDataset(1803, 8);
        return q.polygons();
      }()};
  return *corpus;
}

// Refinement engines: software, and per-pair hardware at 8x8.
enum class Engine { kSoftware, kPerPair };
constexpr Engine kEngines[] = {Engine::kSoftware, Engine::kPerPair};

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kSoftware:
      return "sw";
    case Engine::kPerPair:
      return "pp";
  }
  return "?";
}

HwConfig EngineConfig(bool intervals) {
  HwConfig hw;
  hw.resolution = 8;
  hw.routing = HwRouting::kStatic;
  hw.use_intervals = intervals;
  hw.interval_grid_bits = 8;
  return hw;
}

std::string OfflineRowName(const char* form, Engine e, bool intervals,
                           const std::string& variant) {
  return std::string(form) + "/" + EngineName(e) +
         (intervals ? "/iv" : "/noiv") + variant;
}

std::string DistanceName(double d) { return d == 0.0 ? "/d0" : "/d1.5"; }

// Golden digests. The verdict digests hash what the per-form query loops
// (for the large-polygon rows, the flat-clip testers) already reported;
// the work digests are those of the per-pair testers, re-recorded for the
// distance rows when their hardware step learned to skip decided
// primitives. A row missing from the table (or a digest that moved) fails
// with its current values.
struct Golden {
  const char* row;
  uint64_t verdict;
  uint64_t work;
};

const std::vector<Golden>& Goldens() {
  static const auto* goldens = new std::vector<Golden>{
      {"select/sw/noiv/int-1", 0x6bd5bed81ec3e3e9ull, 0xc86ec345c0ee8125ull},
      {"select/sw/noiv/int3", 0xe4d9ae9045d59ac7ull, 0xc86ec345c0ee8125ull},
      {"select/sw/iv/int-1", 0xd6f71cf97ad52cc3ull, 0xc86ec345c0ee8125ull},
      {"select/sw/iv/int3", 0x50096688a5c2b68full, 0xc86ec345c0ee8125ull},
      {"select/pp/noiv/int-1", 0xec45e7d1241bcc4dull, 0x7392b8d2f212bcffull},
      {"select/pp/noiv/int3", 0x761724ad34fb4a23ull, 0x7392b8d2f212bcffull},
      {"select/pp/iv/int-1", 0x9ed4d3208f1961e2ull, 0x536c2d1cbe96a92cull},
      {"select/pp/iv/int3", 0xad61c25e29f6efeeull, 0x536c2d1cbe96a92cull},
      {"join/sw/noiv", 0x6677af55d67131a5ull, 0x0c8210784d8af5a5ull},
      {"join/sw/iv", 0xb73f7e61ee86695aull, 0x0c8210784d8af5a5ull},
      {"join/pp/noiv", 0x2a2c8caadd3a9814ull, 0x9ae48816e7d32e2eull},
      {"join/pp/iv", 0x041c48e34d54e0f6ull, 0xc76c9b4ab93bb195ull},
      {"dselect/sw/noiv/obj/d0", 0x18713a3eae3da469ull, 0xc86ec345c0ee8125ull},
      {"dselect/sw/noiv/obj/d1.5", 0xed4e9387f71709f4ull,
       0xc86ec345c0ee8125ull},
      {"dselect/sw/noiv/noobj/d0", 0x18713a3eae3da469ull,
       0xc86ec345c0ee8125ull},
      {"dselect/sw/noiv/noobj/d1.5", 0xef69dacaf819a83dull,
       0xc86ec345c0ee8125ull},
      {"dselect/sw/iv/obj/d0", 0x7ae8344adb3511c1ull, 0xc86ec345c0ee8125ull},
      {"dselect/sw/iv/obj/d1.5", 0x228b753a24d81d7full, 0xc86ec345c0ee8125ull},
      {"dselect/sw/iv/noobj/d0", 0x7ae8344adb3511c1ull, 0xc86ec345c0ee8125ull},
      {"dselect/sw/iv/noobj/d1.5", 0x29882166e7d37875ull,
       0xc86ec345c0ee8125ull},
      {"dselect/pp/noiv/obj/d0", 0x4b0207b186a123c1ull, 0x349c7befe590449full},
      {"dselect/pp/noiv/obj/d1.5", 0x7c83a427d82e3717ull,
       0xc2344511f133d56aull},
      {"dselect/pp/noiv/noobj/d0", 0x4b0207b186a123c1ull,
       0x349c7befe590449full},
      {"dselect/pp/noiv/noobj/d1.5", 0xf71285ebfd0f37d9ull,
       0x07ce11bbad796b88ull},
      {"dselect/pp/iv/obj/d0", 0xd0f54099b81c4300ull, 0x00496ed4317b43a1ull},
      {"dselect/pp/iv/obj/d1.5", 0x7b52715012e3d47cull, 0x8634aa595a2d1ac0ull},
      {"dselect/pp/iv/noobj/d0", 0xd0f54099b81c4300ull, 0x00496ed4317b43a1ull},
      {"dselect/pp/iv/noobj/d1.5", 0xe4e15e6f0de8c4b0ull,
       0x12e9bb7769ae8577ull},
      {"djoin/sw/noiv/obj/d0", 0x11023d98461fca05ull, 0x0c8210784d8af5a5ull},
      {"djoin/sw/noiv/obj/d1.5", 0xc628c9ad0547bfd7ull, 0x0c8210784d8af5a5ull},
      {"djoin/sw/noiv/noobj/d0", 0x11023d98461fca05ull, 0x0c8210784d8af5a5ull},
      {"djoin/sw/noiv/noobj/d1.5", 0x792ce5cfd7fd5ce4ull,
       0x0c8210784d8af5a5ull},
      {"djoin/sw/iv/obj/d0", 0x1de3f1c960e23f9aull, 0x0c8210784d8af5a5ull},
      {"djoin/sw/iv/obj/d1.5", 0xdba95d15649307dbull, 0x0c8210784d8af5a5ull},
      {"djoin/sw/iv/noobj/d0", 0x1de3f1c960e23f9aull, 0x0c8210784d8af5a5ull},
      {"djoin/sw/iv/noobj/d1.5", 0x3920f911b811d2e3ull, 0x0c8210784d8af5a5ull},
      {"djoin/pp/noiv/obj/d0", 0x944c93df23365c3cull, 0x03156ff52ede1c72ull},
      {"djoin/pp/noiv/obj/d1.5", 0x89a4d6ec2930703dull, 0x02f582a7a46a34c6ull},
      {"djoin/pp/noiv/noobj/d0", 0x944c93df23365c3cull, 0x03156ff52ede1c72ull},
      {"djoin/pp/noiv/noobj/d1.5", 0x51d2ceb2ff9e9d72ull,
       0x311878226a4b06a0ull},
      {"djoin/pp/iv/obj/d0", 0xe7a21990624a88b3ull, 0x1459cdb2cf3312b4ull},
      {"djoin/pp/iv/obj/d1.5", 0x07d9b18a9f5fa7fdull, 0x925a096517509d3bull},
      {"djoin/pp/iv/noobj/d0", 0xe7a21990624a88b3ull, 0x1459cdb2cf3312b4ull},
      {"djoin/pp/iv/noobj/d1.5", 0x62f2438a3d5fe463ull, 0x6c2f7f5157688da5ull},
      {"snap-select/L0/pp", 0x448c30a33b79b85bull, 0x6a85c0e453e4ff95ull},
      {"snap-join/L0/pp", 0x501971bdb28146caull, 0x852023efb1f1b45cull},
      {"snap-dselect/L0/pp/d0", 0xfe1e98235df90b21ull, 0xe71b23cca68d4ff5ull},
      {"snap-dselect/L0/pp/d1.5", 0x17a15763bd29588bull, 0x29cfc5fd55274a07ull},
      {"snap-djoin/L0/pp/d0", 0xdbee049e5a437d59ull, 0x5ba6dd0049add916ull},
      {"snap-djoin/L0/pp/d1.5", 0xfc562b8984b0f6e1ull, 0x1e53e75cee0d3e17ull},
      {"snap-select/L2/pp", 0x448c30a33b79b85bull, 0x9a447a2147ebc46eull},
      {"snap-join/L2/pp", 0x87aee18b26209b9aull, 0xf69cfbb5af9e3733ull},
      {"snap-dselect/L2/pp/d0", 0xfe1e98235df90b21ull, 0x9c9369630cf20199ull},
      {"snap-dselect/L2/pp/d1.5", 0xfff92d8a5d02d1c9ull, 0x56f107bbc0c365c4ull},
      {"snap-djoin/L2/pp/d0", 0xc5336560f8b6dad1ull, 0x7b80391e13d0b5f7ull},
      {"snap-djoin/L2/pp/d1.5", 0x5af9da2c02465de9ull, 0x4cec7a6ebbb626f8ull},
      {"snap-select/L3/pp", 0x741323ed5498a37aull, 0xc86ec345c0ee8125ull},
      {"snap-join/L3/pp", 0x107f3394a0ff4124ull, 0x0c8210784d8af5a5ull},
      {"snap-dselect/L3/pp/d0", 0x11c0f0ef5b2393beull, 0xc86ec345c0ee8125ull},
      {"snap-dselect/L3/pp/d1.5", 0x4f57600e15ddedc5ull, 0xc86ec345c0ee8125ull},
      {"snap-djoin/L3/pp/d0", 0x42b99d8276a9243cull, 0x0c8210784d8af5a5ull},
      {"snap-djoin/L3/pp/d1.5", 0x2b4f39c0e163e9c0ull, 0x0c8210784d8af5a5ull},
      // The large-polygon rows, whose verdict digests were first recorded
      // before the testers clipped and located points through chain boxes.
      {"large-select/sw", 0x4b1ef1c8ed690c04ull, 0xd80ac658736bb725ull},
      {"large-join/sw", 0xeaf61a6da1ebe2deull, 0x0c8210784d8af5a5ull},
      {"large-dselect/sw/d0", 0x9251b7a7264cb124ull, 0xd80ac658736bb725ull},
      {"large-dselect/sw/d1.5", 0x2aafc34f6a38164cull, 0xd80ac658736bb725ull},
      {"large-djoin/sw/d0", 0xe4feac88f6bc7cbeull, 0x0c8210784d8af5a5ull},
      {"large-djoin/sw/d1.5", 0x7294429cd1ebbf69ull, 0x0c8210784d8af5a5ull},
      {"large-snap-select/sw", 0x63188aa6a57a2c5cull, 0xd80ac658736bb725ull},
      {"large-snap-join/sw", 0x0120fa35a69fadf0ull, 0x0c8210784d8af5a5ull},
      {"large-snap-dselect/sw/d0", 0x63188aa6a57a2c5cull,
       0xd80ac658736bb725ull},
      {"large-snap-dselect/sw/d1.5", 0x093a14bfbde63b78ull,
       0xd80ac658736bb725ull},
      {"large-snap-djoin/sw/d0", 0x0120fa35a69fadf0ull, 0x0c8210784d8af5a5ull},
      {"large-snap-djoin/sw/d1.5", 0xaa0b300d57fe38cbull,
       0x0c8210784d8af5a5ull},
      {"large-select/pp", 0x02282455905fd60eull, 0xf41297b05c23e25full},
      {"large-join/pp", 0x61de202af7ce4733ull, 0xe2bd6e61e4f16746ull},
      {"large-dselect/pp/d0", 0x06f6017163b3fd82ull, 0x1e45693c95fd9b1full},
      {"large-dselect/pp/d1.5", 0x69c97d1b63d4507bull, 0x944a967b46084208ull},
      {"large-djoin/pp/d0", 0x3a8ca6d6acb223afull, 0x86263d2dcb5e590bull},
      {"large-djoin/pp/d1.5", 0x9500c7e1ad10c9abull, 0x922c502cb5fc9698ull},
      {"large-snap-select/pp", 0x633d4540dfa781a9ull, 0xaa998a0a67aa9c63ull},
      {"large-snap-join/pp", 0x9d08bee0fa044047ull, 0x9fddbedfc1ba57ddull},
      {"large-snap-dselect/pp/d0", 0xf8f5aedccb49c33dull,
       0xabe8f9c16c22b9e9ull},
      {"large-snap-dselect/pp/d1.5", 0x04890d09c6e5664bull,
       0x04c7f37da9dcb66cull},
      {"large-snap-djoin/pp/d0", 0x9604c7c732171dfeull, 0x1c4823db106893d5ull},
      {"large-snap-djoin/pp/d1.5", 0x6b9561d4d5a18a6bull,
       0x01c6386e0edcf0f1ull},
      // Routed twins (HwRouting::kByCost): every pair goes to the exact
      // engine, so each offline and large-* twin reads as its software row.
      {"select/pp/noiv/int-1/routed", 0x6bd5bed81ec3e3e9ull,
       0xc86ec345c0ee8125ull},
      {"select/pp/noiv/int3/routed", 0xe4d9ae9045d59ac7ull,
       0xc86ec345c0ee8125ull},
      {"select/pp/iv/int-1/routed", 0xd6f71cf97ad52cc3ull,
       0xc86ec345c0ee8125ull},
      {"select/pp/iv/int3/routed", 0x50096688a5c2b68full,
       0xc86ec345c0ee8125ull},
      {"join/pp/noiv/routed", 0x6677af55d67131a5ull, 0x0c8210784d8af5a5ull},
      {"join/pp/iv/routed", 0xb73f7e61ee86695aull, 0x0c8210784d8af5a5ull},
      {"snap-select/L0/pp/routed", 0xffaf4b4345b84d9cull,
       0xc86ec345c0ee8125ull},
      {"snap-join/L0/pp/routed", 0x3c3dc958253b45b2ull, 0x0c8210784d8af5a5ull},
      {"snap-select/L2/pp/routed", 0xffaf4b4345b84d9cull,
       0xc86ec345c0ee8125ull},
      {"snap-join/L2/pp/routed", 0x3c3dc958253b45b2ull, 0x0c8210784d8af5a5ull},
      {"large-select/pp/routed", 0x4b1ef1c8ed690c04ull, 0xd80ac658736bb725ull},
      {"large-join/pp/routed", 0xeaf61a6da1ebe2deull, 0x0c8210784d8af5a5ull},
      {"large-snap-select/pp/routed", 0x63188aa6a57a2c5cull,
       0xd80ac658736bb725ull},
      {"large-snap-join/pp/routed", 0x0120fa35a69fadf0ull,
       0x0c8210784d8af5a5ull},
  };
  return *goldens;
}

void ExpectGolden(const std::string& row, const Fnv1a& got) {
  for (const Golden& golden : Goldens()) {
    if (golden.row == row) {
      EXPECT_EQ(golden.verdict, got.verdict()) << row << " verdict";
      EXPECT_EQ(golden.work, got.work()) << row << " work";
      return;
    }
  }
  char hex[64];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull",
                got.verdict(), got.work());
  ADD_FAILURE() << "no golden digest for row; current: {\"" << row << "\", "
                << hex << "},";
}

Fnv1a SelectionDigest(const IntersectionSelection& selection,
                         const std::vector<geom::Polygon>& queries,
                         SelectionOptions options, int threads) {
  options.num_threads = threads;
  Fnv1a h;
  for (const geom::Polygon& q : queries) {
    const SelectionResult r = selection.Run(q, options);
    h.Add(r.ids);
    h.Add(r.counts);
    h.Add(r.interval_hits);
    h.Add(r.interval_misses);
    h.Add(r.interval_undecided);
    h.Add(r.hw_counters);
    h.Add(r.status);
  }
  return h;
}

Fnv1a JoinDigest(const IntersectionJoin& join, JoinOptions options,
                    int threads) {
  options.num_threads = threads;
  const JoinResult r = join.Run(options);
  Fnv1a h;
  h.Add(r.pairs);
  h.Add(r.counts);
  h.Add(r.interval_hits);
  h.Add(r.interval_misses);
  h.Add(r.interval_undecided);
  h.Add(r.hw_counters);
  h.Add(r.status);
  return h;
}

Fnv1a DistanceSelectionDigest(const WithinDistanceSelection& selection,
                                 const std::vector<geom::Polygon>& queries,
                                 double d, DistanceSelectionOptions options,
                                 int threads) {
  options.num_threads = threads;
  Fnv1a h;
  for (const geom::Polygon& q : queries) {
    const DistanceSelectionResult r = selection.Run(q, d, options);
    h.Add(r.ids);
    h.Add(r.counts);
    h.Add(r.zero_object_hits);
    h.Add(r.one_object_hits);
    h.Add(r.interval_hits);
    h.Add(r.interval_undecided);
    h.Add(r.hw_counters);
    h.Add(r.status);
  }
  return h;
}

Fnv1a DistanceJoinDigest(const WithinDistanceJoin& join, double d,
                            DistanceJoinOptions options, int threads) {
  options.num_threads = threads;
  const DistanceJoinResult r = join.Run(d, options);
  Fnv1a h;
  h.Add(r.pairs);
  h.Add(r.counts);
  h.Add(r.zero_object_hits);
  h.Add(r.one_object_hits);
  h.Add(r.interval_hits);
  h.Add(r.interval_undecided);
  h.Add(r.hw_counters);
  h.Add(r.status);
  return h;
}

// Runs a row at one and three threads: the serial digest must match the
// golden table, and the threaded run must agree with it on every field.
template <typename DigestAt>
Fnv1a CheckOfflineRow(const std::string& row, DigestAt&& digest_at) {
  const Fnv1a serial = digest_at(1);
  const Fnv1a threaded = digest_at(3);
  EXPECT_EQ(serial.verdict(), threaded.verdict())
      << row << " differs at 3 threads";
  EXPECT_EQ(serial.work(), threaded.work())
      << row << " work differs at 3 threads";
  ExpectGolden(row, serial);
  return serial;
}

// A routed twin against its static row (see the file comment); the
// twin's own goldens are checked by the caller.
void ExpectTwinOf(const std::string& row, const Fnv1a& static_row,
                  const Fnv1a& twin) {
  EXPECT_EQ(static_row.outcome(), twin.outcome())
      << row << "/routed: results, counts or status differ";
  EXPECT_EQ(static_row.hw_bound(), twin.hw_bound())
      << row << "/routed: routed a different set of pairs";
}

// An offline intersection row under the static plan, then, when the row
// runs the hardware step, its routed twin, each at one and three threads.
template <typename Options, typename DigestAt>
void CheckOfflineRowAndTwin(const std::string& row, Options options,
                            DigestAt&& digest_at) {
  options.hw.routing = HwRouting::kStatic;
  const Fnv1a static_row = CheckOfflineRow(
      row, [&](int threads) { return digest_at(options, threads); });
  if (!options.use_hw) return;
  options.hw.routing = HwRouting::kByCost;
  ExpectTwinOf(row, static_row,
               CheckOfflineRow(row + "/routed", [&](int threads) {
                 return digest_at(options, threads);
               }));
}

TEST(QueryDigestTest, Selection) {
  const IntersectionSelection selection(TheCorpus().a);
  for (const Engine e : kEngines) {
    for (const bool intervals : {false, true}) {
      for (const int level : {-1, 3}) {
        SelectionOptions options;
        options.use_hw = e != Engine::kSoftware;
        options.hw = EngineConfig(intervals);
        options.interior_tiling_level = level;
        CheckOfflineRowAndTwin(
            OfflineRowName("select", e, intervals,
                           level < 0 ? "/int-1" : "/int3"),
            options, [&](const SelectionOptions& o, int threads) {
              return SelectionDigest(selection, TheCorpus().queries, o,
                                     threads);
            });
      }
    }
  }
}

TEST(QueryDigestTest, Join) {
  const IntersectionJoin join(TheCorpus().a, TheCorpus().b);
  for (const Engine e : kEngines) {
    for (const bool intervals : {false, true}) {
      JoinOptions options;
      options.use_hw = e != Engine::kSoftware;
      options.hw = EngineConfig(intervals);
      CheckOfflineRowAndTwin(OfflineRowName("join", e, intervals, ""), options,
                             [&](const JoinOptions& o, int threads) {
                               return JoinDigest(join, o, threads);
                             });
    }
  }
}

TEST(QueryDigestTest, DistanceSelection) {
  const WithinDistanceSelection selection(TheCorpus().a);
  for (const Engine e : kEngines) {
    for (const bool intervals : {false, true}) {
      for (const bool object_filters : {true, false}) {
        for (const double d : kDistances) {
          DistanceSelectionOptions options;
          options.use_hw = e != Engine::kSoftware;
          options.hw = EngineConfig(intervals);
          options.use_zero_object_filter = object_filters;
          options.use_one_object_filter = object_filters;
          CheckOfflineRow(
              OfflineRowName("dselect", e, intervals,
                             (object_filters ? "/obj" : "/noobj") +
                                 DistanceName(d)),
              [&](int threads) {
                return DistanceSelectionDigest(selection, TheCorpus().queries,
                                               d, options, threads);
              });
        }
      }
    }
  }
}

TEST(QueryDigestTest, DistanceJoin) {
  const WithinDistanceJoin join(TheCorpus().a, TheCorpus().b);
  for (const Engine e : kEngines) {
    for (const bool intervals : {false, true}) {
      for (const bool object_filters : {true, false}) {
        for (const double d : kDistances) {
          DistanceJoinOptions options;
          options.use_hw = e != Engine::kSoftware;
          options.hw = EngineConfig(intervals);
          options.use_zero_object_filter = object_filters;
          options.use_one_object_filter = object_filters;
          CheckOfflineRow(
              OfflineRowName("djoin", e, intervals,
                             (object_filters ? "/obj" : "/noobj") +
                                 DistanceName(d)),
              [&](int threads) {
                return DistanceJoinDigest(join, d, options, threads);
              });
        }
      }
    }
  }
}

// The serving path: a store holding both datasets' polygons (A seeded,
// B inserted), with a slot interval grid over their joint extent.
struct Store {
  std::unique_ptr<data::VersionedDataset> data;
  std::unique_ptr<filter::SlotIntervalGrid> grid;
};

Store MakeStore(const Corpus& corpus) {
  Store store;
  store.data = std::make_unique<data::VersionedDataset>(
      "digest", corpus.a.size() + corpus.b.size());
  EXPECT_TRUE(store.data->SeedFrom(corpus.a).ok());
  for (const geom::Polygon& p : corpus.b.polygons()) {
    EXPECT_TRUE(store.data->Insert(p).ok());
  }
  // The frame encloses every stored polygon (generated shapes may cross
  // the profile extent); queries may still reach outside it.
  geom::Box frame = corpus.a.Bounds();
  frame.Extend(corpus.b.Bounds());
  auto grid = filter::SlotIntervalGrid::Create(frame, store.data->capacity(),
                                               {.grid_bits = 8});
  EXPECT_TRUE(grid.ok());
  store.grid = std::make_unique<filter::SlotIntervalGrid>(
      std::move(grid).value());
  return store;
}

void AddSnapshotResult(Fnv1a* h, const SnapshotQueryResult& r) {
  h->Add(r.ids);
  h->Add(r.pairs);
  h->AddOutcome(r.candidates);
  h->Add(r.interval_hits);
  h->Add(r.interval_misses);
  h->Add(r.hw_counters);
  h->Add(r.status);
}

std::string SnapshotRowName(const char* form, DegradeLevel level,
                            const std::string& suffix) {
  return std::string(form) + "/L" + std::to_string(static_cast<int>(level)) +
         "/pp" + suffix;
}

constexpr DegradeLevel kLevels[] = {DegradeLevel::kNone, DegradeLevel::kLowRes,
                                    DegradeLevel::kIntervalsOnly};

// The two snapshot intersection forms under one options value.
Fnv1a SnapshotSelectionDigest(const data::VersionedDataset::Snapshot& snap,
                              const std::vector<geom::Polygon>& queries,
                              const SnapshotQueryOptions& options) {
  Fnv1a h;
  for (const geom::Polygon& q : queries) {
    AddSnapshotResult(&h, SnapshotSelection(snap, q, options));
  }
  return h;
}

Fnv1a SnapshotJoinDigest(const data::VersionedDataset::Snapshot& snap,
                         const SnapshotQueryOptions& options) {
  Fnv1a h;
  AddSnapshotResult(&h, SnapshotJoin(snap, options));
  return h;
}

// A snapshot intersection row under the static plan, then, when the row
// runs the hardware step (L3 has none), its routed twin.
template <typename DigestOf>
void CheckSnapshotRowAndTwin(const std::string& row,
                             SnapshotQueryOptions options,
                             DigestOf&& digest_of) {
  options.hw.routing = HwRouting::kStatic;
  const Fnv1a static_row = digest_of(options);
  ExpectGolden(row, static_row);
  if (!options.use_hw || options.degrade == DegradeLevel::kIntervalsOnly) {
    return;
  }
  options.hw.routing = HwRouting::kByCost;
  const Fnv1a twin = digest_of(options);
  ExpectGolden(row + "/routed", twin);
  ExpectTwinOf(row, static_row, twin);
}

TEST(QueryDigestTest, SnapshotForms) {
  const Store store = MakeStore(TheCorpus());
  const data::VersionedDataset::Snapshot snap = store.data->snapshot();
  for (const DegradeLevel level : kLevels) {
    SnapshotQueryOptions options;
    options.use_hw = true;
    options.hw.resolution = 8;
    options.hw.routing = HwRouting::kStatic;
    options.degrade = level;
    options.intervals = store.grid.get();
    CheckSnapshotRowAndTwin(
        SnapshotRowName("snap-select", level, ""), options,
        [&](const SnapshotQueryOptions& o) {
          return SnapshotSelectionDigest(snap, TheCorpus().queries, o);
        });
    CheckSnapshotRowAndTwin(SnapshotRowName("snap-join", level, ""), options,
                            [&](const SnapshotQueryOptions& o) {
                              return SnapshotJoinDigest(snap, o);
                            });
    for (const double d : kDistances) {
      Fnv1a h;
      for (const geom::Polygon& q : TheCorpus().queries) {
        AddSnapshotResult(&h, SnapshotDistanceSelection(snap, q, d, options));
      }
      ExpectGolden(SnapshotRowName("snap-dselect", level, DistanceName(d)), h);
    }
    for (const double d : kDistances) {
      Fnv1a h;
      AddSnapshotResult(&h, SnapshotDistanceJoin(snap, d, options));
      ExpectGolden(SnapshotRowName("snap-djoin", level, DistanceName(d)), h);
    }
  }
}

// Every form over the large corpus: offline forms without intervals (so
// every candidate reaches a tester), snapshot forms at L0, each under both
// engines and, for the distance forms, both distances.
TEST(QueryDigestTest, LargePolygons) {
  const Corpus& corpus = TheLargeCorpus();
  const IntersectionSelection selection(corpus.a);
  const IntersectionJoin join(corpus.a, corpus.b);
  const WithinDistanceSelection dselection(corpus.a);
  const WithinDistanceJoin djoin(corpus.a, corpus.b);
  const Store store = MakeStore(corpus);
  const data::VersionedDataset::Snapshot snap = store.data->snapshot();
  for (const Engine e : kEngines) {
    const std::string engine = std::string("/") + EngineName(e);
    const HwConfig hw = EngineConfig(/*intervals=*/false);
    const bool use_hw = e != Engine::kSoftware;
    {
      SelectionOptions options;
      options.use_hw = use_hw;
      options.hw = hw;
      CheckOfflineRowAndTwin(
          "large-select" + engine, options,
          [&](const SelectionOptions& o, int threads) {
            return SelectionDigest(selection, corpus.queries, o, threads);
          });
    }
    {
      JoinOptions options;
      options.use_hw = use_hw;
      options.hw = hw;
      CheckOfflineRowAndTwin("large-join" + engine, options,
                             [&](const JoinOptions& o, int threads) {
                               return JoinDigest(join, o, threads);
                             });
    }
    for (const double d : kDistances) {
      DistanceSelectionOptions options;
      options.use_hw = use_hw;
      options.hw = hw;
      CheckOfflineRow("large-dselect" + engine + DistanceName(d),
                      [&](int threads) {
                        return DistanceSelectionDigest(
                            dselection, corpus.queries, d, options, threads);
                      });
    }
    for (const double d : kDistances) {
      DistanceJoinOptions options;
      options.use_hw = use_hw;
      options.hw = hw;
      CheckOfflineRow("large-djoin" + engine + DistanceName(d),
                      [&](int threads) {
                        return DistanceJoinDigest(djoin, d, options, threads);
                      });
    }
    SnapshotQueryOptions options;
    options.use_hw = use_hw;
    options.hw = hw;
    CheckSnapshotRowAndTwin("large-snap-select" + engine, options,
                            [&](const SnapshotQueryOptions& o) {
                              return SnapshotSelectionDigest(
                                  snap, corpus.queries, o);
                            });
    CheckSnapshotRowAndTwin("large-snap-join" + engine, options,
                            [&](const SnapshotQueryOptions& o) {
                              return SnapshotJoinDigest(snap, o);
                            });
    for (const double d : kDistances) {
      Fnv1a h;
      for (const geom::Polygon& q : corpus.queries) {
        AddSnapshotResult(&h, SnapshotDistanceSelection(snap, q, d, options));
      }
      ExpectGolden("large-snap-dselect" + engine + DistanceName(d), h);
    }
    for (const double d : kDistances) {
      Fnv1a h;
      AddSnapshotResult(&h, SnapshotDistanceJoin(snap, d, options));
      ExpectGolden("large-snap-djoin" + engine + DistanceName(d), h);
    }
  }
}

}  // namespace
}  // namespace hasj::core
