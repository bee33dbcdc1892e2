// Quickstart: parse two polygons from WKT, test them for intersection and
// proximity with the hardware-assisted testers, and show what the hardware
// filter did. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "hasj.h"

int main() {
  using namespace hasj;

  // Two concave parcels that overlap near (4, 4).
  const auto parcel_a = geom::ParseWktPolygon(
      "POLYGON ((0 0, 5 0, 5 2, 2 2, 2 5, 0 5, 0 0))");
  const auto parcel_b = geom::ParseWktPolygon(
      "POLYGON ((3 1, 7 1, 7 6, 3 6, 3 1))");
  const auto far_field = geom::ParseWktPolygon(
      "POLYGON ((9 9, 12 9, 12 12, 9 12, 9 9))");
  if (!parcel_a.ok() || !parcel_b.ok() || !far_field.ok()) {
    std::fprintf(stderr, "WKT parse failed\n");
    return 1;
  }

  // The hardware-assisted intersection test (Algorithm 3.1): an 8x8
  // off-screen window, as the paper recommends, on every pair (the paper's
  // plan; the default routing sends intersection pairs to software).
  core::HwConfig config;
  config.resolution = 8;
  config.routing = core::HwRouting::kStatic;
  core::HwIntersectionTester intersect(config);

  std::printf("parcel_a intersects parcel_b:  %s\n",
              intersect.Test(*parcel_a, *parcel_b) ? "yes" : "no");
  std::printf("parcel_a intersects far_field: %s\n",
              intersect.Test(*parcel_a, *far_field) ? "yes" : "no");

  const core::HwCounters& c = intersect.counters();
  std::printf("  [%lld tests: %lld decided by point-in-polygon, %lld "
              "hardware tests, %lld rejected by hardware, %lld confirmed in "
              "software]\n",
              static_cast<long long>(c.tests),
              static_cast<long long>(c.pip_hits),
              static_cast<long long>(c.hw_tests),
              static_cast<long long>(c.hw_rejects),
              static_cast<long long>(c.sw_tests));

  // The distance variant: are the parcels within 5 units of the far field?
  core::HwDistanceTester within(config);
  std::printf("parcel_a within 8.0 of far_field: %s\n",
              within.Test(*parcel_a, *far_field, 8.0) ? "yes" : "no");
  std::printf("parcel_a within 8.1 of far_field: %s\n",
              within.Test(*parcel_a, *far_field, 8.1) ? "yes" : "no");

  // Exact software answers for reference.
  std::printf("exact distance(parcel_a, far_field) = %.4f\n",
              algo::PolygonDistance(*parcel_a, *far_field));
  return 0;
}
