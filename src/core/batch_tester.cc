#include "core/batch_tester.h"

namespace hasj::core {

BatchHardwareTester::BatchHardwareTester(
    const HwConfig& config, const algo::DistanceOptions& dist_options)
    : isect_(config), dist_(config, dist_options) {}

void BatchHardwareTester::TestIntersectionBatch(
    std::span<const PolygonPair> pairs, uint8_t* verdicts) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    verdicts[i] = isect_.Test(*pairs[i].first, *pairs[i].second) ? 1 : 0;
  }
}

void BatchHardwareTester::TestWithinDistanceBatch(
    std::span<const PolygonPair> pairs, double d, uint8_t* verdicts) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    verdicts[i] = dist_.Test(*pairs[i].first, *pairs[i].second, d) ? 1 : 0;
  }
}

HwCounters BatchHardwareTester::counters() const {
  HwCounters merged = isect_.counters();
  merged += dist_.counters();
  return merged;
}

}  // namespace hasj::core
