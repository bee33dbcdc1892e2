// Property-based differential suite over seeded random polygon pairs. Two
// families of properties, each checked on thousands of pairs:
//
//  (a) exactness/conservativeness — every hardware-assisted tester agrees
//      with the exact software predicate at every window resolution (a
//      non-conservative hardware reject would flip a decision);
//  (b) batch identity — BatchHardwareTester, the loop over the per-pair
//      testers that the layer benchmark replays store queries through,
//      produces the per-pair testers' verdicts and identical integer
//      counters (row-span work included) at several resolutions.
//
// The corpus mixes radial blobs and elongated snakes with vertex counts
// straddling the sw_threshold configurations under test. Seeds come from
// tests/test_seed.h: set HASJ_TEST_SEED to replay a failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/polygon_distance.h"
#include "algo/polygon_intersect.h"
#include "common/random.h"
#include "core/batch_tester.h"
#include "core/hw_distance.h"
#include "core/hw_filled.h"
#include "core/hw_intersection.h"
#include "core/hw_nearest.h"
#include "data/generator.h"
#include "tests/test_seed.h"

namespace hasj {
namespace {

using core::BatchHardwareTester;
using core::HwConfig;
using core::HwCounters;
using core::PolygonPair;
using geom::Point;
using geom::Polygon;

struct PairSample {
  Polygon a;
  Polygon b;
};

// Random near-or-overlapping pair: two shapes whose centers differ by at
// most a few radii, so the corpus is rich in the interesting regimes
// (crossing boundaries, close-but-disjoint, containment, far misses).
PairSample MakePair(Rng& rng) {
  const Point ca{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
  const Point cb{ca.x + rng.Uniform(-2.0, 2.0), ca.y + rng.Uniform(-2.0, 2.0)};
  const auto make = [&](Point c) {
    const double radius = rng.Uniform(0.3, 1.5);
    if (rng.Bernoulli(0.3)) {
      // Snake generation needs at least 8 vertices (two offset chains).
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

std::vector<PolygonPair> AsPairs(const std::vector<PairSample>& corpus) {
  std::vector<PolygonPair> pairs;
  pairs.reserve(corpus.size());
  for (const PairSample& s : corpus) pairs.push_back({&s.a, &s.b});
  return pairs;
}

// The integer counters must be identical between the per-pair testers and
// the batch loop over them (only the wall-clock fields may differ) — the
// row-span work and early-stop counters too.
void ExpectSameIntegerCounters(const HwCounters& per_pair,
                               const HwCounters& batch) {
  EXPECT_EQ(per_pair.tests, batch.tests);
  EXPECT_EQ(per_pair.mbr_misses, batch.mbr_misses);
  EXPECT_EQ(per_pair.pip_hits, batch.pip_hits);
  EXPECT_EQ(per_pair.sw_threshold_skips, batch.sw_threshold_skips);
  EXPECT_EQ(per_pair.hw_tests, batch.hw_tests);
  EXPECT_EQ(per_pair.hw_rejects, batch.hw_rejects);
  EXPECT_EQ(per_pair.sw_tests, batch.sw_tests);
  EXPECT_EQ(per_pair.width_fallbacks, batch.width_fallbacks);
  EXPECT_EQ(per_pair.hw_faults, batch.hw_faults);
  EXPECT_EQ(per_pair.hw_fallback_pairs, batch.hw_fallback_pairs);
  EXPECT_EQ(per_pair.breaker_opens, batch.breaker_opens);
  EXPECT_EQ(per_pair.fill_spans, batch.fill_spans);
  EXPECT_EQ(per_pair.scan_spans, batch.scan_spans);
  EXPECT_EQ(per_pair.fill_saturation_stops, batch.fill_saturation_stops);
  EXPECT_EQ(per_pair.scan_hit_stops, batch.scan_hit_stops);
}

constexpr int kCorpusSize = 5000;

// ---------------------------------------------------------------------------
// (a) Exactness / conservativeness.

TEST(PropertyIntersection, ExactAtEveryResolution) {
  const uint64_t seed = TestSeed(1201);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, 1500);
  for (int resolution : {1, 2, 8, 32}) {
    HwConfig config;
    config.resolution = resolution;
    core::HwIntersectionTester tester(config);
    for (size_t i = 0; i < corpus.size(); ++i) {
      const bool exact = algo::PolygonsIntersect(corpus[i].a, corpus[i].b);
      ASSERT_EQ(tester.Test(corpus[i].a, corpus[i].b), exact)
          << "pair " << i << " resolution " << resolution;
    }
  }
}

TEST(PropertyDistance, ExactAtEveryResolution) {
  const uint64_t seed = TestSeed(1301);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, 800);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> distances;
  distances.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    distances.push_back(rng.Uniform(0.0, 2.0));
  }
  for (int resolution : {1, 2, 8, 32}) {
    HwConfig config;
    config.resolution = resolution;
    core::HwDistanceTester tester(config);
    for (size_t i = 0; i < corpus.size(); ++i) {
      const bool exact =
          algo::WithinDistance(corpus[i].a, corpus[i].b, distances[i]);
      ASSERT_EQ(tester.Test(corpus[i].a, corpus[i].b, distances[i]), exact)
          << "pair " << i << " d " << distances[i] << " resolution "
          << resolution;
    }
  }
}

TEST(PropertyFilled, ExactAtEveryResolution) {
  const uint64_t seed = TestSeed(1401);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, 500);
  for (int resolution : {2, 8, 32}) {
    HwConfig config;
    config.resolution = resolution;
    core::HwFilledIntersectionTester tester(config);
    for (size_t i = 0; i < corpus.size(); ++i) {
      const bool exact = algo::PolygonsIntersect(corpus[i].a, corpus[i].b);
      ASSERT_EQ(tester.Test(corpus[i].a, corpus[i].b), exact)
          << "pair " << i << " resolution " << resolution;
    }
  }
}

TEST(PropertyNearest, QueryMatchesBruteForce) {
  const uint64_t seed = TestSeed(1501);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (int resolution : {16, 64}) {
    std::vector<Point> sites;
    for (int i = 0; i < 200; ++i) {
      sites.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
    }
    const core::HwNearestNeighbor nn(sites, resolution);
    for (int i = 0; i < 500; ++i) {
      const Point q{rng.Uniform(-1.0, 11.0), rng.Uniform(-1.0, 11.0)};
      int64_t best = 0;
      double best_d2 = (sites[0].x - q.x) * (sites[0].x - q.x) +
                       (sites[0].y - q.y) * (sites[0].y - q.y);
      for (size_t s = 1; s < sites.size(); ++s) {
        const double d2 = (sites[s].x - q.x) * (sites[s].x - q.x) +
                          (sites[s].y - q.y) * (sites[s].y - q.y);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = static_cast<int64_t>(s);
        }
      }
      ASSERT_EQ(nn.Query(q), best)
          << "query " << i << " resolution " << resolution;
    }
  }
}

// The faithful accumulation-buffer backend and the bitmask backend must
// agree pair-for-pair (and with the exact predicate) — the bitmask path is
// advertised as decision-identical.
TEST(PropertyIntersection, FaithfulBackendAgreesWithBitmask) {
  const uint64_t seed = TestSeed(1601);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, 400);
  HwConfig faithful_config;
  faithful_config.backend = core::HwBackend::kFaithful;
  HwConfig bitmask_config;
  bitmask_config.backend = core::HwBackend::kBitmask;
  core::HwIntersectionTester faithful(faithful_config);
  core::HwIntersectionTester bitmask(bitmask_config);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const bool exact = algo::PolygonsIntersect(corpus[i].a, corpus[i].b);
    ASSERT_EQ(faithful.Test(corpus[i].a, corpus[i].b), exact) << "pair " << i;
    ASSERT_EQ(bitmask.Test(corpus[i].a, corpus[i].b), exact) << "pair " << i;
  }
}

// ---------------------------------------------------------------------------
// (b) Batch identity: verdict arrays and integer counters.

class BatchIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchIdentityTest, IntersectionVerdictsAndCounters) {
  const int resolution = GetParam();
  const uint64_t seed = TestSeed(1701);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize);
  const std::vector<PolygonPair> pairs = AsPairs(corpus);

  HwConfig config;
  config.resolution = resolution;
  core::HwIntersectionTester per_pair(config);
  std::vector<uint8_t> expected(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = per_pair.Test(*pairs[i].first, *pairs[i].second) ? 1 : 0;
  }

  BatchHardwareTester batch(config);
  std::vector<uint8_t> verdicts(pairs.size(), 255);
  batch.TestIntersectionBatch(pairs, verdicts.data());
  EXPECT_EQ(verdicts, expected);
  ExpectSameIntegerCounters(per_pair.counters(), batch.counters());
  EXPECT_GT(batch.counters().hw_tests, 0);
}

TEST_P(BatchIdentityTest, DistanceVerdictsAndCounters) {
  const int resolution = GetParam();
  const uint64_t seed = TestSeed(1801);
  SCOPED_TRACE(SeedTrace(seed));
  const std::vector<PairSample> corpus = MakeCorpus(seed, kCorpusSize);
  const std::vector<PolygonPair> pairs = AsPairs(corpus);
  // One distance per resolution: small enough that the hardware path stays
  // within the width limits at every resolution under test, large enough
  // that many pairs are within range.
  const double d = 0.25;

  HwConfig config;
  config.resolution = resolution;
  core::HwDistanceTester per_pair(config);
  std::vector<uint8_t> expected(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = per_pair.Test(*pairs[i].first, *pairs[i].second, d) ? 1 : 0;
  }

  BatchHardwareTester batch(config);
  std::vector<uint8_t> verdicts(pairs.size(), 255);
  batch.TestWithinDistanceBatch(pairs, d, verdicts.data());
  EXPECT_EQ(verdicts, expected);
  ExpectSameIntegerCounters(per_pair.counters(), batch.counters());
  EXPECT_GT(batch.counters().hw_tests, 0);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, BatchIdentityTest,
                         ::testing::Values(1, 2, 8, 32));

}  // namespace
}  // namespace hasj
