// Verdict-and-counter digests of all eight query forms: the four offline
// pipelines and the four snapshot forms of the serving path. Each row runs
// one configuration and hashes (FNV-1a 64) everything a query reports that
// must not move under a refactor of the query core: the in-order result
// list (filter accepts in candidate order, then refined accepts), the
// StageCounts, every filter tally, every integer HwCounters field, and the
// status code. Wall-clock fields are left out.
//
// The golden table was recorded from the query core before its eight
// per-form loops were merged into one stage skeleton; a change to any
// digest is a change in behaviour, not a refactor. Offline rows also run
// at num_threads 1 and 3 and must agree (the threaded rows run under
// scripts/check_tsan.sh). In a -DHASJ_PARANOID=ON build every interval
// accept and reject and every hardware reject these rows make is
// oracle-checked.

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

// FNV-1a 64 over the fields above, kept as two streams: `full` takes
// every field, `thread_invariant` all but batch.batches. Atlas passes are
// counted per worker chunk, so they are the one integer counter that moves
// with num_threads; every other field must not.
class Fnv1a {
 public:
  void Add(int64_t v) {
    Mix(&full_, v);
    Mix(&thread_invariant_, v);
  }
  void Add(const std::vector<int64_t>& ids) {
    Add(static_cast<int64_t>(ids.size()));
    for (const int64_t id : ids) Add(id);
  }
  void Add(const std::vector<std::pair<int64_t, int64_t>>& pairs) {
    Add(static_cast<int64_t>(pairs.size()));
    for (const auto& [a, b] : pairs) {
      Add(a);
      Add(b);
    }
  }
  void Add(const StageCounts& c) {
    Add(c.candidates);
    Add(c.filter_hits);
    Add(c.compared);
    Add(c.results);
    Add(c.truncated ? 1 : 0);
  }
  void Add(const HwCounters& c) {
    for (const int64_t v :
         {c.tests, c.mbr_misses, c.pip_hits, c.sw_threshold_skips, c.hw_tests,
          c.hw_rejects, c.sw_tests, c.width_fallbacks, c.hw_faults,
          c.hw_fallback_pairs, c.breaker_opens, c.fill_spans, c.scan_spans,
          c.fill_saturation_stops, c.scan_hit_stops}) {
      Add(v);
    }
    Mix(&full_, c.batch.batches);
    Add(c.batch.batched_pairs);
  }
  void Add(const Status& s) { Add(static_cast<int64_t>(s.code())); }

  uint64_t full() const { return full_; }
  uint64_t thread_invariant() const { return thread_invariant_; }

 private:
  static void Mix(uint64_t* hash, int64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      *hash ^= static_cast<uint64_t>(v >> (8 * byte)) & 0xffu;
      *hash *= 0x100000001b3ull;
    }
  }

  uint64_t full_ = 0xcbf29ce484222325ull;
  uint64_t thread_invariant_ = 0xcbf29ce484222325ull;
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

// Refinement engines: software, per-pair hardware at 8x8, batched
// hardware at 8x8.
enum class Engine { kSoftware, kPerPair, kBatched };
constexpr Engine kEngines[] = {Engine::kSoftware, Engine::kPerPair,
                               Engine::kBatched};

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kSoftware:
      return "sw";
    case Engine::kPerPair:
      return "pp";
    case Engine::kBatched:
      return "batch";
  }
  return "?";
}

HwConfig EngineConfig(Engine e, bool intervals) {
  HwConfig hw;
  hw.resolution = 8;
  hw.use_batching = e == Engine::kBatched;
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

// Golden digests recorded from the per-form query loops (the large-polygon
// rows from the flat-clip testers). A row missing from the table (or a
// digest that moved) fails with its current value.
const std::vector<std::pair<std::string, uint64_t>>& Goldens() {
  static const auto* goldens =
      new std::vector<std::pair<std::string, uint64_t>>{
          {"select/sw/noiv/int-1", 0x0ee42f7a4256b9e9ull},
          {"select/sw/noiv/int3", 0xaf37186be6aebbc7ull},
          {"select/sw/iv/int-1", 0x7451ece314eccc43ull},
          {"select/sw/iv/int3", 0x1ca9b33343bed90full},
          {"select/pp/noiv/int-1", 0xb529a1f080c15997ull},
          {"select/pp/noiv/int3", 0x91b3c9632fa445b9ull},
          {"select/pp/iv/int-1", 0x266f5f78bfd3d90bull},
          {"select/pp/iv/int3", 0x4001a15cd16d5247ull},
          {"select/batch/noiv/int-1", 0x0365b2406b57387eull},
          {"select/batch/noiv/int3", 0x0e76bedce3008e90ull},
          {"select/batch/iv/int-1", 0xded383c57bca4a2cull},
          {"select/batch/iv/int3", 0x7e4cda34baf5b960ull},
          {"join/sw/noiv", 0x0443d64b7a014425ull},
          {"join/sw/iv", 0x5c96a9aafc8d965aull},
          {"join/pp/noiv", 0x2ff5df4df0d1c27bull},
          {"join/pp/iv", 0x778e8f9c879860c6ull},
          {"join/batch/noiv", 0x8654091bdacce5e1ull},
          {"join/batch/iv", 0x64b5df17caa90d91ull},
          {"dselect/sw/noiv/obj/d0", 0x3de3adf1dffd6a69ull},
          {"dselect/sw/noiv/obj/d1.5", 0x6c2868a2da7e25f4ull},
          {"dselect/sw/noiv/noobj/d0", 0x3de3adf1dffd6a69ull},
          {"dselect/sw/noiv/noobj/d1.5", 0x5719f143ba57493dull},
          {"dselect/sw/iv/obj/d0", 0x43a4870dcdc8be41ull},
          {"dselect/sw/iv/obj/d1.5", 0x016e453a87b024ffull},
          {"dselect/sw/iv/noobj/d0", 0x43a4870dcdc8be41ull},
          {"dselect/sw/iv/noobj/d1.5", 0x7ec655a7b1c90bf5ull},
          {"dselect/pp/noiv/obj/d0", 0x1b6d69cd453d5c16ull},
          {"dselect/pp/noiv/obj/d1.5", 0xbf355c84d5739a04ull},
          {"dselect/pp/noiv/noobj/d0", 0x1b6d69cd453d5c16ull},
          {"dselect/pp/noiv/noobj/d1.5", 0xa6fddbaaa94f000dull},
          {"dselect/pp/iv/obj/d0", 0xcf885267567a3212ull},
          {"dselect/pp/iv/obj/d1.5", 0x1e8e176e7dd298c1ull},
          {"dselect/pp/iv/noobj/d0", 0xcf885267567a3212ull},
          {"dselect/pp/iv/noobj/d1.5", 0xcc8ce1c4b9d700ccull},
          {"dselect/batch/noiv/obj/d0", 0x92b1b8710fc74311ull},
          {"dselect/batch/noiv/obj/d1.5", 0xf9ef7432ae452150ull},
          {"dselect/batch/noiv/noobj/d0", 0x92b1b8710fc74311ull},
          {"dselect/batch/noiv/noobj/d1.5", 0x51cb21f3883a9404ull},
          {"dselect/batch/iv/obj/d0", 0x8e71c08ed5f7b352ull},
          {"dselect/batch/iv/obj/d1.5", 0x4822f51060e37405ull},
          {"dselect/batch/iv/noobj/d0", 0x8e71c08ed5f7b352ull},
          {"dselect/batch/iv/noobj/d1.5", 0xbc2768ce174e3788ull},
          {"djoin/sw/noiv/obj/d0", 0x53f9962493540c85ull},
          {"djoin/sw/noiv/obj/d1.5", 0x1d553503ffb76b57ull},
          {"djoin/sw/noiv/noobj/d0", 0x53f9962493540c85ull},
          {"djoin/sw/noiv/noobj/d1.5", 0x4013a2d2b8fccee4ull},
          {"djoin/sw/iv/obj/d0", 0x0d8facb6f3e48c9aull},
          {"djoin/sw/iv/obj/d1.5", 0x95a845f0927fb55bull},
          {"djoin/sw/iv/noobj/d0", 0x0d8facb6f3e48c9aull},
          {"djoin/sw/iv/noobj/d1.5", 0x4711667881d60463ull},
          {"djoin/pp/noiv/obj/d0", 0xcd4007870a97657aull},
          {"djoin/pp/noiv/obj/d1.5", 0x1c70844ccf2f7b49ull},
          {"djoin/pp/noiv/noobj/d0", 0xcd4007870a97657aull},
          {"djoin/pp/noiv/noobj/d1.5", 0x65fac26efa21509aull},
          {"djoin/pp/iv/obj/d0", 0xde4ab60c1a44a9d6ull},
          {"djoin/pp/iv/obj/d1.5", 0x9a95bf3eda9ab3e1ull},
          {"djoin/pp/iv/noobj/d0", 0xde4ab60c1a44a9d6ull},
          {"djoin/pp/iv/noobj/d1.5", 0xd66acba65c5e1232ull},
          {"djoin/batch/noiv/obj/d0", 0x6d245e7a6268f9c1ull},
          {"djoin/batch/noiv/obj/d1.5", 0xd775cc005f505808ull},
          {"djoin/batch/noiv/noobj/d0", 0x6d245e7a6268f9c1ull},
          {"djoin/batch/noiv/noobj/d1.5", 0x2ec4da5d3b805dbcull},
          {"djoin/batch/iv/obj/d0", 0xff2428f5e78a1d9dull},
          {"djoin/batch/iv/obj/d1.5", 0xa8cc375a77a1cc0cull},
          {"djoin/batch/iv/noobj/d0", 0xff2428f5e78a1d9dull},
          {"djoin/batch/iv/noobj/d1.5", 0x681ab707d068e989ull},
          {"snap-select/L0/pp", 0x3916c9488e5e856bull},
          {"snap-join/L0/pp", 0x26c9d28ceb6f808full},
          {"snap-dselect/L0/pp/d0", 0x2a280eece47a7809ull},
          {"snap-dselect/L0/pp/d1.5", 0x6eb48cf456ce9dc2ull},
          {"snap-djoin/L0/pp/d0", 0x862f40a29f00c0fcull},
          {"snap-djoin/L0/pp/d1.5", 0xcb27176a8514afa9ull},
          {"snap-select/L0/batch", 0x19f6431cb571ad81ull},
          {"snap-join/L0/batch", 0x369c5db2d441aab0ull},
          {"snap-dselect/L0/batch/d0", 0x93980ec668c75f3eull},
          {"snap-dselect/L0/batch/d1.5", 0x74199a6998818d97ull},
          {"snap-djoin/L0/batch/d0", 0x451e8e17ca7cc71dull},
          {"snap-djoin/L0/batch/d1.5", 0xaa4ee846014649c1ull},
          {"snap-select/L1/pp", 0x3916c9488e5e856bull},
          {"snap-join/L1/pp", 0x26c9d28ceb6f808full},
          {"snap-dselect/L1/pp/d0", 0x2a280eece47a7809ull},
          {"snap-dselect/L1/pp/d1.5", 0x6eb48cf456ce9dc2ull},
          {"snap-djoin/L1/pp/d0", 0x862f40a29f00c0fcull},
          {"snap-djoin/L1/pp/d1.5", 0xcb27176a8514afa9ull},
          {"snap-select/L1/batch", 0x3916c9488e5e856bull},
          {"snap-join/L1/batch", 0x26c9d28ceb6f808full},
          {"snap-dselect/L1/batch/d0", 0x2a280eece47a7809ull},
          {"snap-dselect/L1/batch/d1.5", 0x6eb48cf456ce9dc2ull},
          {"snap-djoin/L1/batch/d0", 0x862f40a29f00c0fcull},
          {"snap-djoin/L1/batch/d1.5", 0xcb27176a8514afa9ull},
          {"snap-select/L2/pp", 0xb17eb414e500c7b0ull},
          {"snap-join/L2/pp", 0x3c8b5142c6c4c1a8ull},
          {"snap-dselect/L2/pp/d0", 0x163283fabd463fbdull},
          {"snap-dselect/L2/pp/d1.5", 0xd07ad70b70e7c326ull},
          {"snap-djoin/L2/pp/d0", 0xb0bbdf6704bde1c4ull},
          {"snap-djoin/L2/pp/d1.5", 0xa341a7e4a258d241ull},
          {"snap-select/L2/batch", 0xb17eb414e500c7b0ull},
          {"snap-join/L2/batch", 0x3c8b5142c6c4c1a8ull},
          {"snap-dselect/L2/batch/d0", 0x163283fabd463fbdull},
          {"snap-dselect/L2/batch/d1.5", 0xd07ad70b70e7c326ull},
          {"snap-djoin/L2/batch/d0", 0xb0bbdf6704bde1c4ull},
          {"snap-djoin/L2/batch/d1.5", 0xa341a7e4a258d241ull},
          {"snap-select/L3/pp", 0x68643c599cd1ff7aull},
          {"snap-join/L3/pp", 0xf4b1f0fe5180d324ull},
          {"snap-dselect/L3/pp/d0", 0xbf746af9dce47c3eull},
          {"snap-dselect/L3/pp/d1.5", 0xc1ba43aa6472d3c5ull},
          {"snap-djoin/L3/pp/d0", 0xc92651c6ddf2423cull},
          {"snap-djoin/L3/pp/d1.5", 0x41a1a4f8ac48c9c0ull},
          {"snap-select/L3/batch", 0x68643c599cd1ff7aull},
          {"snap-join/L3/batch", 0xf4b1f0fe5180d324ull},
          {"snap-dselect/L3/batch/d0", 0xbf746af9dce47c3eull},
          {"snap-dselect/L3/batch/d1.5", 0xc1ba43aa6472d3c5ull},
          {"snap-djoin/L3/batch/d0", 0xc92651c6ddf2423cull},
          {"snap-djoin/L3/batch/d1.5", 0x41a1a4f8ac48c9c0ull},
          // The large-polygon rows, recorded before the testers clipped
          // and located points through chain boxes.
          {"large-select/sw", 0x11ae511c6743a604ull},
          {"large-join/sw", 0x826bc76a0de8d1deull},
          {"large-dselect/sw/d0", 0xf172f30cf200eb24ull},
          {"large-dselect/sw/d1.5", 0x2141862a6400a24cull},
          {"large-djoin/sw/d0", 0xda9bbd778ebe5bbeull},
          {"large-djoin/sw/d1.5", 0x6ae2a781188bb3e9ull},
          {"large-snap-select/sw", 0x0deb1f5e2e307a5cull},
          {"large-snap-join/sw", 0x6811cdd3e692a5f0ull},
          {"large-snap-dselect/sw/d0", 0x0deb1f5e2e307a5cull},
          {"large-snap-dselect/sw/d1.5", 0x3b8af404cd7f8af8ull},
          {"large-snap-djoin/sw/d0", 0x6811cdd3e692a5f0ull},
          {"large-snap-djoin/sw/d1.5", 0x68d42755ee5f5e4bull},
          {"large-select/pp", 0xa46438c78d1b668cull},
          {"large-join/pp", 0x482a27f48766f84cull},
          {"large-dselect/pp/d0", 0x68abc1c27eb93178ull},
          {"large-dselect/pp/d1.5", 0x44083cbd6970e396ull},
          {"large-djoin/pp/d0", 0xdaf698ee16a3d2c3ull},
          {"large-djoin/pp/d1.5", 0xe774a86971818a76ull},
          {"large-snap-select/pp", 0xf5f945c43025f0d7ull},
          {"large-snap-join/pp", 0x1a41f6d4b298f7e3ull},
          {"large-snap-dselect/pp/d0", 0x8cd535e776691d72ull},
          {"large-snap-dselect/pp/d1.5", 0x4f36376563fb6a99ull},
          {"large-snap-djoin/pp/d0", 0x677f8017fb8862f6ull},
          {"large-snap-djoin/pp/d1.5", 0x4ccf64782384af00ull},
          {"large-select/batch", 0xca1a69749127bbaaull},
          {"large-join/batch", 0xc4160130112d3a4eull},
          {"large-dselect/batch/d0", 0xa0f9a06b023360a6ull},
          {"large-dselect/batch/d1.5", 0x0ef96b43d7a7573cull},
          {"large-djoin/batch/d0", 0xc03a78912e174127ull},
          {"large-djoin/batch/d1.5", 0xd93e304dd47a724bull},
          {"large-snap-select/batch", 0x14c1786e55982affull},
          {"large-snap-join/batch", 0x515c5b502e362ee8ull},
          {"large-snap-dselect/batch/d0", 0x001fac3c1604abd9ull},
          {"large-snap-dselect/batch/d1.5", 0x9a68303d49442ce4ull},
          {"large-snap-djoin/batch/d0", 0x7c049eecc74fb08full},
          {"large-snap-djoin/batch/d1.5", 0x98503a87a4bd81d5ull},
      };
  return *goldens;
}

void ExpectGolden(const std::string& row, uint64_t got) {
  for (const auto& [name, want] : Goldens()) {
    if (name == row) {
      EXPECT_EQ(want, got) << row;
      return;
    }
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull", got);
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
// golden table, and the threaded run must agree with it on every field
// but the per-worker atlas pass count.
template <typename DigestAt>
void CheckOfflineRow(const std::string& row, DigestAt&& digest_at) {
  const Fnv1a serial = digest_at(1);
  EXPECT_EQ(serial.thread_invariant(), digest_at(3).thread_invariant())
      << row << " differs at 3 threads";
  ExpectGolden(row, serial.full());
}

TEST(QueryDigestTest, Selection) {
  const IntersectionSelection selection(TheCorpus().a);
  for (const Engine e : kEngines) {
    for (const bool intervals : {false, true}) {
      for (const int level : {-1, 3}) {
        SelectionOptions options;
        options.use_hw = e != Engine::kSoftware;
        options.hw = EngineConfig(e, intervals);
        options.interior_tiling_level = level;
        CheckOfflineRow(
            OfflineRowName("select", e, intervals,
                           level < 0 ? "/int-1" : "/int3"),
            [&](int threads) {
              return SelectionDigest(selection, TheCorpus().queries, options,
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
      options.hw = EngineConfig(e, intervals);
      CheckOfflineRow(OfflineRowName("join", e, intervals, ""),
                      [&](int threads) {
                        return JoinDigest(join, options, threads);
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
          options.hw = EngineConfig(e, intervals);
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
          options.hw = EngineConfig(e, intervals);
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
  h->Add(r.candidates);
  h->Add(r.interval_hits);
  h->Add(r.interval_misses);
  h->Add(r.hw_counters);
  h->Add(r.status);
}

std::string SnapshotRowName(const char* form, DegradeLevel level,
                            bool batching, const std::string& suffix) {
  return std::string(form) + "/L" + std::to_string(static_cast<int>(level)) +
         (batching ? "/batch" : "/pp") + suffix;
}

constexpr DegradeLevel kLevels[] = {
    DegradeLevel::kNone, DegradeLevel::kNoBatch, DegradeLevel::kLowRes,
    DegradeLevel::kIntervalsOnly};

TEST(QueryDigestTest, SnapshotForms) {
  const Store store = MakeStore(TheCorpus());
  const data::VersionedDataset::Snapshot snap = store.data->snapshot();
  for (const DegradeLevel level : kLevels) {
    for (const bool batching : {false, true}) {
      SnapshotQueryOptions options;
      options.use_hw = true;
      options.hw.resolution = 8;
      options.hw.use_batching = batching;
      options.degrade = level;
      options.intervals = store.grid.get();
      {
        Fnv1a h;
        for (const geom::Polygon& q : TheCorpus().queries) {
          AddSnapshotResult(&h, SnapshotSelection(snap, q, options));
        }
        ExpectGolden(SnapshotRowName("snap-select", level, batching, ""),
                     h.full());
      }
      {
        Fnv1a h;
        AddSnapshotResult(&h, SnapshotJoin(snap, options));
        ExpectGolden(SnapshotRowName("snap-join", level, batching, ""),
                     h.full());
      }
      for (const double d : kDistances) {
        Fnv1a h;
        for (const geom::Polygon& q : TheCorpus().queries) {
          AddSnapshotResult(&h, SnapshotDistanceSelection(snap, q, d, options));
        }
        ExpectGolden(
            SnapshotRowName("snap-dselect", level, batching, DistanceName(d)),
            h.full());
      }
      for (const double d : kDistances) {
        Fnv1a h;
        AddSnapshotResult(&h, SnapshotDistanceJoin(snap, d, options));
        ExpectGolden(
            SnapshotRowName("snap-djoin", level, batching, DistanceName(d)),
            h.full());
      }
    }
  }
}

// Every form over the large corpus: offline forms without intervals (so
// every candidate reaches a tester), snapshot forms at L0, each under the
// three engines and, for the distance forms, both distances.
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
    const HwConfig hw = EngineConfig(e, /*intervals=*/false);
    const bool use_hw = e != Engine::kSoftware;
    {
      SelectionOptions options;
      options.use_hw = use_hw;
      options.hw = hw;
      CheckOfflineRow("large-select" + engine, [&](int threads) {
        return SelectionDigest(selection, corpus.queries, options, threads);
      });
    }
    {
      JoinOptions options;
      options.use_hw = use_hw;
      options.hw = hw;
      CheckOfflineRow("large-join" + engine, [&](int threads) {
        return JoinDigest(join, options, threads);
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
    {
      Fnv1a h;
      for (const geom::Polygon& q : corpus.queries) {
        AddSnapshotResult(&h, SnapshotSelection(snap, q, options));
      }
      ExpectGolden("large-snap-select" + engine, h.full());
    }
    {
      Fnv1a h;
      AddSnapshotResult(&h, SnapshotJoin(snap, options));
      ExpectGolden("large-snap-join" + engine, h.full());
    }
    for (const double d : kDistances) {
      Fnv1a h;
      for (const geom::Polygon& q : corpus.queries) {
        AddSnapshotResult(&h, SnapshotDistanceSelection(snap, q, d, options));
      }
      ExpectGolden("large-snap-dselect" + engine + DistanceName(d), h.full());
    }
    for (const double d : kDistances) {
      Fnv1a h;
      AddSnapshotResult(&h, SnapshotDistanceJoin(snap, d, options));
      ExpectGolden("large-snap-djoin" + engine + DistanceName(d), h.full());
    }
  }
}

}  // namespace
}  // namespace hasj::core
