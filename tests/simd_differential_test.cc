// Scalar-vs-AVX2 differential suite for the row-span kernel engine
// (DESIGN.md §14). The backends advertise bit-identity: identical words,
// identical span/newly-set counts, and identical early-stop points. This
// suite enforces the contract at three levels:
//
//  (a) kernel level — random span buffers (including empty, inverted,
//      out-of-viewport, and NaN extents) applied to random word buffers
//      through both kernel tables, words compared by memcmp;
//  (b) mask level — random line/point primitives rendered into PixelMask
//      storage through both engines, storage compared word-for-word;
//  (c) tester level — the intersection and distance testers configured
//      with simd=scalar and simd=avx2 over seeded random polygon corpora:
//      byte-identical verdict arrays and identical integer HwCounters,
//      including the fill_saturation_stops / scan_hit_stops early-stop
//      counters.
//
// On hosts without AVX2 every differential test skips with a visible
// "[SKIPPED no-avx2]" note. Seeds come from tests/test_seed.h: set
// HASJ_TEST_SEED to replay a failure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "core/hw_config.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "data/generator.h"
#include "geom/point.h"
#include "glsim/pixel_mask.h"
#include "glsim/rowspan.h"
#include "tests/test_seed.h"

namespace hasj {
namespace {

using common::SimdMode;
using core::HwConfig;
using core::HwCounters;
using geom::Point;
using geom::Polygon;
using glsim::FillResult;
using glsim::ProbeResult;
using glsim::RowSpanBuffer;
using glsim::RowSpanEngine;

#define HASJ_SKIP_WITHOUT_AVX2()                                          \
  do {                                                                    \
    if (!RowSpanEngine::Available(SimdMode::kAvx2)) {                     \
      GTEST_SKIP() << "[SKIPPED no-avx2] host CPU lacks AVX2; "           \
                      "scalar-vs-avx2 differential not exercised";        \
    }                                                                     \
  } while (false)

// ---------------------------------------------------------------------------
// (a) Kernel level: random span buffers over random word buffers.

// Random buffer rich in the edge regimes: empty rows (±inf), inverted
// spans, spans clamped outside the viewport, sub-pixel spans, and the
// occasional NaN extent (which PixelFromCoord's !(v >= lo) ordering sends
// to column 0 — the AVX2 snap must reproduce that exactly).
void RandomSpans(Rng& rng, int vw, int vh, RowSpanBuffer* spans) {
  const int row_min = static_cast<int>(rng.UniformInt(0, vh - 1));
  const int row_max =
      static_cast<int>(rng.UniformInt(row_min, vh - 1));
  spans->row_min = row_min;
  spans->row_max = row_max;
  const double inf = std::numeric_limits<double>::infinity();
  for (int r = row_min; r <= row_max; ++r) {
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.2) {  // untouched row
      spans->xlo[r] = inf;
      spans->xhi[r] = -inf;
      continue;
    }
    if (roll < 0.25) {  // NaN extent
      spans->xlo[r] = std::numeric_limits<double>::quiet_NaN();
      spans->xhi[r] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    // Spans straddling and overshooting the viewport on both sides.
    const double a = rng.Uniform(-2.0 * vw, 2.0 * vw);
    const double b = a + rng.Uniform(-1.0, static_cast<double>(vw));
    spans->xlo[r] = std::min(a, b);
    spans->xhi[r] = std::max(a, b);
    if (rng.Bernoulli(0.05)) std::swap(spans->xlo[r], spans->xhi[r]);
  }
}

struct KernelCase {
  int vw;
  int vh;
  int stride_words;  // 0 = packed layout
};

class KernelDifferentialTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelDifferentialTest, FillAndProbeBitIdentical) {
  HASJ_SKIP_WITHOUT_AVX2();
  const KernelCase c = GetParam();
  const uint64_t seed = TestSeed(4101);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed ^ (static_cast<uint64_t>(c.vw) << 20));
  const RowSpanEngine& scalar = RowSpanEngine::Get(SimdMode::kScalar);
  const RowSpanEngine& avx2 = RowSpanEngine::Get(SimdMode::kAvx2);
  ASSERT_EQ(scalar.mode(), SimdMode::kScalar);
  ASSERT_EQ(avx2.mode(), SimdMode::kAvx2);

  const size_t words =
      c.stride_words == 0 ? 1
                          : static_cast<size_t>(c.stride_words) *
                                static_cast<size_t>(c.vh);
  RowSpanBuffer spans;
  std::vector<uint64_t> base(words), ws(words), wa(words);
  for (int iter = 0; iter < 3000; ++iter) {
    RandomSpans(rng, c.vw, c.vh, &spans);
    for (size_t i = 0; i < words; ++i) base[i] = rng.Next();
    // Sparse buffers make probe misses (full walks) common too.
    if (rng.Bernoulli(0.5)) {
      for (size_t i = 0; i < words; ++i) base[i] &= rng.Next() & rng.Next();
    }
    ws = base;
    wa = base;

    FillResult fs, fa;
    ProbeResult ps, pa;
    if (c.stride_words == 0) {
      fs = scalar.FillPacked(&spans, c.vw, ws.data());
      fa = avx2.FillPacked(&spans, c.vw, wa.data());
      ps = scalar.ProbePacked(&spans, c.vw, base.data());
      pa = avx2.ProbePacked(&spans, c.vw, base.data());
    } else {
      fs = scalar.FillRows(&spans, c.vw, c.stride_words, ws.data());
      fa = avx2.FillRows(&spans, c.vw, c.stride_words, wa.data());
      ps = scalar.ProbeRows(&spans, c.vw, c.stride_words, base.data());
      pa = avx2.ProbeRows(&spans, c.vw, c.stride_words, base.data());
    }
    ASSERT_EQ(0, std::memcmp(ws.data(), wa.data(), words * sizeof(uint64_t)))
        << "iter " << iter;
    ASSERT_EQ(fs.spans, fa.spans) << "iter " << iter;
    ASSERT_EQ(fs.newly_set, fa.newly_set) << "iter " << iter;
    ASSERT_EQ(ps.spans, pa.spans) << "iter " << iter;
    ASSERT_EQ(ps.hit_row, pa.hit_row) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, KernelDifferentialTest,
    ::testing::Values(KernelCase{8, 8, 0},      // packed 8x8 tile / mask
                      KernelCase{5, 7, 0},      // packed, non-square
                      KernelCase{32, 32, 1},    // word-per-row tile
                      KernelCase{64, 64, 1},    // widest single-word rows
                      KernelCase{256, 64, 4},   // wide mask, multi-word rows
                      KernelCase{1024, 64, 16}  // widest supported mask
                      ));

// ---------------------------------------------------------------------------
// (b) Mask level: primitives rendered through both engines.

TEST(SimdMaskDifferential, PixelMaskWordsIdentical) {
  HASJ_SKIP_WITHOUT_AVX2();
  const uint64_t seed = TestSeed(4201);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const RowSpanEngine& scalar = RowSpanEngine::Get(SimdMode::kScalar);
  const RowSpanEngine& avx2 = RowSpanEngine::Get(SimdMode::kAvx2);
  // Packed, one word per row (32, 64) and multi-word rows.
  for (int res : {8, 32, 64, 256, 1024}) {
    glsim::PixelMask ms(res, res);
    glsim::PixelMask ma(res, res);
    RowSpanBuffer spans;
    for (int iter = 0; iter < 200; ++iter) {
      const Point a{rng.Uniform(-2.0, res + 2.0), rng.Uniform(-2.0, res + 2.0)};
      const Point b{rng.Uniform(-2.0, res + 2.0), rng.Uniform(-2.0, res + 2.0)};
      const double width = rng.Uniform(0.5, 6.0);
      const bool line = rng.Bernoulli(0.7);
      const bool built =
          line ? glsim::ComputeLineAASpans(a, b, width, res, res, &spans)
               : glsim::ComputeWidePointSpans(a, width, res, res, &spans);
      if (!built) continue;
      const FillResult fs = ms.FillSpans(scalar, &spans);
      const FillResult fa = ma.FillSpans(avx2, &spans);
      ASSERT_EQ(fs.spans, fa.spans) << "res " << res << " iter " << iter;
      ASSERT_EQ(fs.newly_set, fa.newly_set)
          << "res " << res << " iter " << iter;
      const ProbeResult ps = ms.ProbeSpans(scalar, &spans);
      const ProbeResult pa = ms.ProbeSpans(avx2, &spans);
      ASSERT_EQ(ps.spans, pa.spans) << "res " << res << " iter " << iter;
      ASSERT_EQ(ps.hit_row, pa.hit_row) << "res " << res << " iter " << iter;
    }
    ASSERT_EQ(0, std::memcmp(ms.words(), ma.words(),
                             ms.word_count() * sizeof(uint64_t)))
        << "res " << res;
    ASSERT_EQ(ms.CountSet(), ma.CountSet()) << "res " << res;
  }
}

// ---------------------------------------------------------------------------
// (c) Tester level: verdicts and HwCounters across backends.

struct PairSample {
  Polygon a;
  Polygon b;
};

// Same corpus family as tests/property_differential_test.cc: near or
// overlapping blob/snake pairs, rich in crossings, near misses, and
// containment.
PairSample MakePair(Rng& rng) {
  const Point ca{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
  const Point cb{ca.x + rng.Uniform(-2.0, 2.0), ca.y + rng.Uniform(-2.0, 2.0)};
  const auto make = [&](Point c) {
    const double radius = rng.Uniform(0.3, 1.5);
    if (rng.Bernoulli(0.3)) {
      const int vertices = static_cast<int>(rng.UniformInt(8, 48));
      return data::GenerateSnakePolygon(c, radius, vertices, 0.25, rng.Next());
    }
    const int vertices = static_cast<int>(rng.UniformInt(3, 48));
    return data::GenerateBlobPolygon(c, radius, vertices, 0.6, rng.Next());
  };
  return {make(ca), make(cb)};
}

std::vector<PairSample> MakeCorpus(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<PairSample> corpus;
  corpus.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) corpus.push_back(MakePair(rng));
  return corpus;
}

// Every integer field must match between backends — including the row-span
// work and early-stop counters, which is the strongest observable form of
// the "same early-stop points" contract.
void ExpectBackendInvariantCounters(const HwCounters& scalar,
                                    const HwCounters& avx2) {
  EXPECT_EQ(scalar.tests, avx2.tests);
  EXPECT_EQ(scalar.mbr_misses, avx2.mbr_misses);
  EXPECT_EQ(scalar.pip_hits, avx2.pip_hits);
  EXPECT_EQ(scalar.sw_threshold_skips, avx2.sw_threshold_skips);
  EXPECT_EQ(scalar.hw_tests, avx2.hw_tests);
  EXPECT_EQ(scalar.hw_rejects, avx2.hw_rejects);
  EXPECT_EQ(scalar.sw_tests, avx2.sw_tests);
  EXPECT_EQ(scalar.width_fallbacks, avx2.width_fallbacks);
  EXPECT_EQ(scalar.fill_spans, avx2.fill_spans);
  EXPECT_EQ(scalar.scan_spans, avx2.scan_spans);
  EXPECT_EQ(scalar.fill_saturation_stops, avx2.fill_saturation_stops);
  EXPECT_EQ(scalar.scan_hit_stops, avx2.scan_hit_stops);
}

constexpr int kCorpusSize = 5000;

class TesterDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TesterDifferentialTest, IntersectionVerdictsAndCounters) {
  HASJ_SKIP_WITHOUT_AVX2();
  const int resolution = GetParam();
  const uint64_t seed = TestSeed(4401);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize);

  HwConfig config;
  config.resolution = resolution;
  config.simd = SimdMode::kScalar;
  core::HwIntersectionTester scalar(config);
  config.simd = SimdMode::kAvx2;
  core::HwIntersectionTester avx2(config);
  ASSERT_EQ(scalar.engine().mode(), SimdMode::kScalar);
  ASSERT_EQ(avx2.engine().mode(), SimdMode::kAvx2);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(scalar.Test(corpus[i].a, corpus[i].b),
              avx2.Test(corpus[i].a, corpus[i].b))
        << "pair " << i << " resolution " << resolution;
  }
  ExpectBackendInvariantCounters(scalar.counters(), avx2.counters());
  // The span-level counters must actually be exercised for the comparison
  // to mean anything.
  EXPECT_GT(scalar.counters().fill_spans, 0);
  EXPECT_GT(scalar.counters().scan_spans, 0);
}

TEST_P(TesterDifferentialTest, DistanceVerdictsAndCounters) {
  HASJ_SKIP_WITHOUT_AVX2();
  const int resolution = GetParam();
  const uint64_t seed = TestSeed(4501);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> distances;
  distances.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    distances.push_back(rng.Uniform(0.0, 2.0));
  }

  HwConfig config;
  config.resolution = resolution;
  config.simd = SimdMode::kScalar;
  core::HwDistanceTester scalar(config);
  config.simd = SimdMode::kAvx2;
  core::HwDistanceTester avx2(config);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(scalar.Test(corpus[i].a, corpus[i].b, distances[i]),
              avx2.Test(corpus[i].a, corpus[i].b, distances[i]))
        << "pair " << i << " resolution " << resolution;
  }
  ExpectBackendInvariantCounters(scalar.counters(), avx2.counters());
}

INSTANTIATE_TEST_SUITE_P(Resolutions, TesterDifferentialTest,
                         ::testing::Values(8, 32, 256, 1024));

// kAuto must resolve to a real backend and (on this host) the widest one.
TEST(SimdDispatch, AutoResolvesToWidestAvailable) {
  const RowSpanEngine& engine = RowSpanEngine::Get(SimdMode::kAuto);
  ASSERT_NE(engine.mode(), SimdMode::kAuto);
  EXPECT_TRUE(RowSpanEngine::Available(SimdMode::kScalar));
  EXPECT_TRUE(RowSpanEngine::Available(SimdMode::kAuto));
  if (RowSpanEngine::Available(SimdMode::kAvx2)) {
    EXPECT_EQ(engine.mode(), SimdMode::kAvx2);
  } else {
    EXPECT_EQ(engine.mode(), SimdMode::kScalar);
  }
}

}  // namespace
}  // namespace hasj
