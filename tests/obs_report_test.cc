#include "obs/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/selection.h"
#include "data/catalogs.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace hasj::obs {
namespace {

// A handcrafted snapshot renders to an exact golden report: the format is
// part of the EXPLAIN ANALYZE contract (DESIGN.md §10).
TEST(RenderReportTest, GoldenReport) {
  MetricsSnapshot snap;
  snap.counters["pipeline.join.runs"] = 1;
  snap.counters[kStageMbrOut] = 200;
  snap.counters[kStageFilterDecided] = 50;
  snap.counters[kStageCompareIn] = 150;
  snap.counters[kQueryResults] = 90;
  snap.counters[kRefineTests] = 150;
  snap.counters[kRefineMbrMisses] = 10;
  snap.counters[kRefinePipHits] = 5;
  snap.counters[kRefineSwThresholdSkips] = 15;
  snap.counters[kRefineHwTests] = 100;
  snap.counters[kRefineHwRejects] = 40;
  snap.counters[kRefineSwTests] = 60;
  snap.counters[kRefineWidthFallbacks] = 2;
  snap.gauges[kStageMbrMs] = 1.5;
  snap.gauges[kStageFilterMs] = 0.25;
  snap.gauges[kStageCompareMs] = 10.125;
  snap.gauges[kRefineHwMs] = 4.5;
  snap.gauges[kRefineSwMs] = 5.5;
  snap.gauges[kRefinePipMs] = 0.5;

  const std::string want =
      "EXPLAIN ANALYZE join x1\n"
      "|- mbr filter            1.500 ms | candidates: 200\n"
      "|- interm. filter        0.250 ms | decided: 50 (25.0%)\n"
      "`- geometry compare     10.125 ms | in: 150  results: 90"
      " (selectivity 45.0%)\n"
      "   |- routing (of 150 tests)\n"
      "   |    mbr-miss: 10 (6.7%)  pip-hit: 5 (3.3%)\n"
      "   |    hw: 100 (66.7%)  sw: 60 (40.0%)  [sw-threshold skips: 15]\n"
      "   |- hw path              4.500 ms | rejects: 40"
      "  width fallbacks: 2\n"
      "   `- sw path              5.500 ms | pip:     0.500 ms\n";
  EXPECT_EQ(RenderReport(snap), want);
}

TEST(RenderReportTest, EmptySnapshot) {
  const std::string report = RenderReport(MetricsSnapshot{});
  EXPECT_NE(report.find("(no pipeline runs recorded)"), std::string::npos);
  EXPECT_NE(report.find("`- sw path"), std::string::npos);
}

TEST(RenderReportTest, HistogramSection) {
  MetricsSnapshot snap;
  snap.counters["pipeline.join.runs"] = 2;
  HistogramSnapshot h;
  h.count = 3;
  h.sum = 12;
  h.min = 2;
  h.max = 6;
  snap.histograms[kHistPairVertices] = h;

  const std::string report = RenderReport(snap);
  EXPECT_NE(report.find("EXPLAIN ANALYZE join x2"), std::string::npos);
  EXPECT_NE(report.find("histograms:"), std::string::npos);
  EXPECT_NE(
      report.find("refine.pair_vertices     count=3 mean=4.0 min=2 max=6"),
      std::string::npos)
      << report;
}

// End-to-end: a fixed-seed hardware-assisted selection feeds the registry,
// and the rendered report must agree with the pipeline's own counters.
TEST(RenderReportTest, FixedSeedSelectionConsistency) {
  const data::Dataset dataset =
      data::GenerateDataset(data::WaterProfile(0.01));
  const data::Dataset queries =
      data::GenerateDataset(data::States50Profile(0.2));
  ASSERT_GT(queries.size(), 0u);

  Registry registry;
  core::SelectionOptions options;
  options.use_hw = true;
  options.hw.resolution = 8;
  options.hw.metrics = &registry;
  const core::IntersectionSelection selection(dataset);
  const core::SelectionResult result =
      selection.Run(queries.polygon(0), options);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("pipeline.selection.runs"), 1);
  EXPECT_EQ(snap.counter(kStageMbrOut), result.counts.candidates);
  EXPECT_EQ(snap.counter(kStageCompareIn), result.counts.compared);
  EXPECT_EQ(snap.counter(kQueryResults), result.counts.results);
  EXPECT_EQ(snap.counter(kRefineTests), result.hw_counters.tests);
  EXPECT_EQ(snap.counter(kRefineHwTests), result.hw_counters.hw_tests);
  EXPECT_EQ(snap.counter(kRefineHwRejects), result.hw_counters.hw_rejects);
  EXPECT_EQ(snap.counter(kRefineSwTests), result.hw_counters.sw_tests);
  EXPECT_EQ(snap.counter(kRefineMbrMisses), result.hw_counters.mbr_misses);
  // The hardware testers feed the per-pair vertex histogram once per test.
  EXPECT_EQ(snap.histograms.at(kHistPairVertices).count,
            result.hw_counters.tests);

  const std::string report = RenderReport(snap);
  EXPECT_NE(report.find("EXPLAIN ANALYZE selection x1"), std::string::npos)
      << report;
  char routing[64];
  std::snprintf(routing, sizeof(routing), "(of %lld tests)",
                static_cast<long long>(result.hw_counters.tests));
  EXPECT_NE(report.find(routing), std::string::npos) << report;
}

}  // namespace
}  // namespace hasj::obs
