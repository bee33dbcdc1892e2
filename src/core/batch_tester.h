#ifndef HASJ_CORE_BATCH_TESTER_H_
#define HASJ_CORE_BATCH_TESTER_H_

#include <cstdint>
#include <span>

#include "algo/polygon_distance.h"
#include "core/hw_config.h"
#include "core/hw_distance.h"
#include "core/hw_intersection.h"
#include "geom/polygon.h"

namespace hasj::core {

// One refinement candidate by reference. The polygons must outlive the
// batch call.
struct PolygonPair {
  const geom::Polygon* first = nullptr;
  const geom::Polygon* second = nullptr;
};

// A loop over the per-pair testers: verdicts[i] is Test() of pair i, and
// counters() is theirs. Nothing in the library calls it; the benchmark
// harness (layerbench/) replays its store queries through it.
class BatchHardwareTester {
 public:
  explicit BatchHardwareTester(
      const HwConfig& config = {},
      const algo::DistanceOptions& dist_options = {});

  void TestIntersectionBatch(std::span<const PolygonPair> pairs,
                             uint8_t* verdicts);
  void TestWithinDistanceBatch(std::span<const PolygonPair> pairs, double d,
                               uint8_t* verdicts);

  HwCounters counters() const;

 private:
  HwIntersectionTester isect_;
  HwDistanceTester dist_;
};

}  // namespace hasj::core

#endif  // HASJ_CORE_BATCH_TESTER_H_
