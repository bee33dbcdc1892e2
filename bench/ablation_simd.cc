// Row-span kernel backend ablation (DESIGN.md §14): the scalar and AVX2
// backends are bit-identical by contract — same mask words, same span
// counts, same early-stop points — so --simd trades only throughput. This
// bench pins both halves of that claim:
//
//   - kernel-core throughput: fill/probe over a fixed corpus of row-span
//     buffers, packed (8x8 mask word) and row-aligned (64x64 word-per-row
//     mask) layouts, timed per backend on identical inputs. Gate (exit 1):
//     AVX2 core speedup >= 2x over scalar, at identical span/newly-set/hit
//     tallies (the equal-work check);
//   - verdict identity: the tessellation intersection join of
//     ablation_intervals run per backend — the pair sets must match.
//
// On hosts without AVX2 the speedup gate is skipped with a visible note
// and the bench degrades to a scalar-only run (exit 0): CI runners are not
// guaranteed the instruction set, local AVX2 runs are where the gate bites.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/stopwatch.h"
#include "core/join.h"
#include "glsim/rowspan.h"

namespace hasj::bench {
namespace {

// One fill+probe workload: span buffers from random anti-aliased segments
// over a res x res viewport (the exact footprints the hardware testers
// emit), plus a probe target pre-filled from every other buffer so probes
// see a realistic mix of hits and misses.
struct Corpus {
  int res = 0;
  std::vector<glsim::RowSpanBuffer> spans;
};

Corpus MakeCorpus(int res, int count, uint64_t seed) {
  Corpus corpus;
  corpus.res = res;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(-4.0, res + 4.0);
  corpus.spans.reserve(static_cast<size_t>(count));
  while (corpus.spans.size() < static_cast<size_t>(count)) {
    const geom::Point a{coord(rng), coord(rng)};
    const geom::Point b{coord(rng), coord(rng)};
    glsim::RowSpanBuffer buffer;
    if (glsim::ComputeLineAASpans(a, b, 1.5, res, res, &buffer)) {
      corpus.spans.push_back(buffer);
    }
  }
  return corpus;
}

// Tallies that must be identical across backends (the bit-identity
// contract observed at bench scale).
struct CoreTally {
  int64_t fill_spans = 0;
  int64_t newly_set = 0;
  int64_t probe_spans = 0;
  int64_t hits = 0;

  bool operator==(const CoreTally& other) const {
    return fill_spans == other.fill_spans && newly_set == other.newly_set &&
           probe_spans == other.probe_spans && hits == other.hits;
  }
};

struct CoreRun {
  double ms = 0.0;
  double mspans_per_s = 0.0;
  CoreTally tally;
};

// Times `iters` passes of fill-everything + probe-everything through one
// backend. Packed layout when res <= 8 (one word per 8x8 mask), otherwise
// the word-per-row layout (stride 1, res <= 64) — the two PixelMask shapes
// of the per-pair testers up to 64x64. Only kernel calls are inside the
// timed region; span construction is shared, backend-independent work.
CoreRun RunCore(const glsim::RowSpanEngine& engine, Corpus* corpus,
                int iters) {
  const int res = corpus->res;
  const bool packed = res <= 8;
  std::vector<uint64_t> grid(packed ? 1 : static_cast<size_t>(res), 0);
  // Probe target: every 16th buffer pre-filled — sparse coverage, so most
  // probes scan their full row range (the throughput-relevant shape; a
  // dense target would let the first-hit early stop hide the kernel).
  std::vector<uint64_t> target(grid.size(), 0);
  for (size_t i = 1; i < corpus->spans.size(); i += 16) {
    glsim::RowSpanBuffer* buffer = &corpus->spans[i];
    if (packed) {
      (void)engine.FillPacked(buffer, res, target.data());
    } else {
      (void)engine.FillRows(buffer, res, 1, target.data());
    }
  }

  CoreRun run;
  Stopwatch watch;
  for (int it = 0; it < iters; ++it) {
    std::fill(grid.begin(), grid.end(), 0);
    for (glsim::RowSpanBuffer& buffer : corpus->spans) {
      const glsim::FillResult fr =
          packed ? engine.FillPacked(&buffer, res, grid.data())
                 : engine.FillRows(&buffer, res, 1, grid.data());
      run.tally.fill_spans += fr.spans;
      run.tally.newly_set += fr.newly_set;
    }
    for (glsim::RowSpanBuffer& buffer : corpus->spans) {
      const glsim::ProbeResult pr =
          packed ? engine.ProbePacked(&buffer, res, target.data())
                 : engine.ProbeRows(&buffer, res, 1, target.data());
      run.tally.probe_spans += pr.spans;
      run.tally.hits += pr.hit_row >= 0 ? 1 : 0;
    }
  }
  run.ms = watch.ElapsedMillis();
  const double total_spans =
      static_cast<double>(run.tally.fill_spans + run.tally.probe_spans);
  run.mspans_per_s = total_spans / (run.ms > 0.0 ? run.ms : 1e-9) / 1e3;
  return run;
}

data::GeneratorProfile TessellationProfile(const char* name, int64_t count,
                                           uint64_t seed) {
  data::GeneratorProfile p;
  p.name = name;
  p.count = count;
  p.min_vertices = 8;
  p.max_vertices = 60;
  p.mean_vertices = 22;
  p.sigma = 0.5;
  p.extent = geom::Box(0, 0, 70, 70);
  p.coverage = 2.5;
  p.roughness = 0.1;
  p.seed = seed;
  return p;
}

std::vector<std::pair<int64_t, int64_t>> SortedPairs(
    const core::JoinResult& r) {
  std::vector<std::pair<int64_t, int64_t>> pairs = r.pairs;
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv, 0.05);
  BenchReport report("ablation_simd", args);
  PrintHeader("Row-span kernel backend: scalar vs AVX2 at identical words",
              args);

  const bool has_avx2 =
      glsim::RowSpanEngine::Available(common::SimdMode::kAvx2);
  const glsim::RowSpanEngine& scalar =
      glsim::RowSpanEngine::Get(common::SimdMode::kScalar);
  const glsim::RowSpanEngine& resolved =
      glsim::RowSpanEngine::Get(common::SimdMode::kAuto);
  std::printf("# host: avx2=%s, auto resolves to %s\n",
              has_avx2 ? "yes" : "no", resolved.name());

  bool gates_ok = true;

  // --- kernel-core throughput --------------------------------------------
  std::printf("%-14s %10s %12s %12s %10s %8s\n", "layout", "backend", "ms",
              "Mspans/s", "speedup", "equal");
  // Iteration counts sized for >= 100 ms per scalar measurement — enough
  // to dominate timer noise on a single core without stretching CI. The
  // gate reads the row-aligned layout: that is the kernel the vector
  // design targets (4 rows per quad plus 256-bit word ops; DESIGN.md §14).
  // The packed 8x8 tile is reported alongside but not gated — a whole
  // tile is at most two quads, so call overhead bounds its speedup well
  // below the wide-layout ceiling.
  const struct {
    const char* name;
    int res;
    int count;
    int iters;
    bool gated;
  } layouts[] = {
      {"packed-8x8", 8, 256, 10000, false},
      {"rows-64x64", 64, 256, 2500, true},
  };
  double gated_speedup = 0.0;
  for (const auto& layout : layouts) {
    Corpus corpus = MakeCorpus(layout.res, layout.count, 977 + args.seed);
    const CoreRun base = RunCore(scalar, &corpus, layout.iters);
    std::printf("%-14s %10s %12.1f %12.1f %10s %8s\n", layout.name, "scalar",
                base.ms, base.mspans_per_s, "-", "-");
    report.Row(std::string(layout.name) + "/scalar",
               {{"ms", base.ms}, {"mspans_per_s", base.mspans_per_s}});
    if (!has_avx2) continue;
    const CoreRun simd =
        RunCore(glsim::RowSpanEngine::Get(common::SimdMode::kAvx2), &corpus,
                layout.iters);
    const bool equal = simd.tally == base.tally;
    const double speedup = base.ms / (simd.ms > 0.0 ? simd.ms : 1e-9);
    std::printf("%-14s %10s %12.1f %12.1f %9.2fx %8s\n", layout.name, "avx2",
                simd.ms, simd.mspans_per_s, speedup,
                equal ? "ok" : "MISMATCH");
    report.Row(std::string(layout.name) + "/avx2",
               {{"ms", simd.ms},
                {"mspans_per_s", simd.mspans_per_s},
                {"speedup", speedup},
                {"equal_tallies", equal ? 1.0 : 0.0}});
    if (!equal) {
      std::fprintf(stderr, "GATE: %s span/newly-set/hit tallies diverge "
                           "between backends\n", layout.name);
      gates_ok = false;
    }
    if (layout.gated) gated_speedup = speedup;
  }
  if (has_avx2 && gated_speedup < 2.0) {
    std::fprintf(stderr, "GATE: AVX2 rasterizer-core speedup %.2fx < 2x "
                         "over scalar on the row-aligned layout\n",
                 gated_speedup);
    gates_ok = false;
  }

  // --- verdict identity over the join pipeline ---------------------------
  const data::Dataset layer_a = Generate(
      TessellationProfile("landuse", 1200, 31).Scaled(args.scale), args);
  const data::Dataset layer_b = Generate(
      TessellationProfile("soil", 1000, 32).Scaled(args.scale), args);
  PrintDataset(layer_a);
  PrintDataset(layer_b);

  std::vector<common::SimdMode> modes = {common::SimdMode::kScalar};
  if (has_avx2) modes.push_back(common::SimdMode::kAvx2);
  std::vector<std::pair<int64_t, int64_t>> baseline_pairs;
  for (const common::SimdMode mode : modes) {
    core::JoinOptions options;
    options.use_hw = true;
    options.num_threads = args.threads;
    options.hw.resolution = 8;
    report.Wire(&options.hw);
    options.hw.simd = mode;
    const core::IntersectionJoin join(layer_a, layer_b);
    const core::JoinResult result = join.Run(options);
    if (!result.status.ok()) {
      std::fprintf(stderr, "join (--simd=%s) failed: %s\n",
                   common::SimdModeName(mode),
                   result.status.message().c_str());
      return 1;
    }
    bool match = true;
    if (mode == common::SimdMode::kScalar) {
      baseline_pairs = SortedPairs(result);
    } else {
      match = SortedPairs(result) == baseline_pairs;
    }
    std::printf("# join simd=%-6s pairs=%-6zu total_ms=%-8.1f match=%s\n",
                common::SimdModeName(mode), SortedPairs(result).size(),
                result.costs.mbr_ms + result.costs.filter_ms +
                    result.costs.compare_ms,
                match ? "ok" : "MISMATCH");
    report.Row(std::string("join/simd=") + common::SimdModeName(mode),
               {{"pairs", static_cast<double>(result.pairs.size())},
                {"total_ms", result.costs.mbr_ms + result.costs.filter_ms +
                                 result.costs.compare_ms},
                {"match", match ? 1.0 : 0.0}});
    if (!match) {
      std::fprintf(stderr, "GATE: join pair set diverges between scalar "
                           "and avx2 backends\n");
      gates_ok = false;
    }
  }

  if (!has_avx2) {
    std::printf("# [SKIPPED no-avx2] host CPU lacks AVX2: scalar-only run, "
                "speedup and identity gates not exercised\n");
  } else {
    std::printf("# expected shape: the row-aligned layout clears the 2x "
                "gate (the quad snap amortizes ceil/floor/clamp over 4 rows "
                "and replaces the per-row word loop with 256-bit or/andnot); "
                "the two-quad packed tile improves more modestly under call "
                "overhead; tallies and the join pair set stay bit-identical "
                "— the backend knob trades throughput, never decisions.\n");
  }
  const int finish = report.Finish();
  return gates_ok ? finish : 1;
}

}  // namespace
}  // namespace hasj::bench

int main(int argc, char** argv) { return hasj::bench::Main(argc, argv); }
