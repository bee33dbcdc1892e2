#ifndef HASJ_CORE_PARANOID_H_
#define HASJ_CORE_PARANOID_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/hw_config.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/polygon.h"

namespace hasj::core::paranoid {

// Conservativeness oracle (DESIGN.md §6).
//
// The paper's entire speedup rests on one invariant: the hardware test is a
// conservative filter — it may keep a disjoint pair (a false hit costs one
// software test) but must NEVER reject a truly intersecting one (Eq. 1 /
// §2.2). A HASJ_PARANOID build (cmake -DHASJ_PARANOID=ON) compiles a
// cross-check into every hardware-filter rejection in hw_intersection,
// hw_distance, hw_filled and hw_nearest: the rejected pair is re-tested
// with the exact algo/ predicate, and a violation aborts the process with a
// rendered-pair dump (WKT of both polygons, the viewport, and an ASCII
// rendering of the two boundary masks) so the failing geometry can be
// replayed.
//
// The Check* functions themselves are compiled unconditionally (tests use
// them directly in any configuration); HASJ_PARANOID only controls whether
// the hot paths invoke them. Call sites use HASJ_PARANOID_ONLY so the
// normal build pays nothing.

#if HASJ_PARANOID
#define HASJ_PARANOID_ONLY(stmt) \
  do {                           \
    stmt;                        \
  } while (0)
#else
#define HASJ_PARANOID_ONLY(stmt) \
  do {                           \
  } while (0)
#endif

// What a violation handler receives: the full human-readable dump.
using ViolationHandler = std::function<void(const std::string& dump)>;

// Installs a handler invoked instead of the default print-and-abort; pass
// nullptr to restore the default. Test-only (not thread-safe by design: the
// negative tests that use it run single-threaded).
void SetViolationHandlerForTest(ViolationHandler handler);

// Routes a violation to the installed handler, or prints the dump and
// aborts. Every dump starts with "CONSERVATIVENESS VIOLATION".
void ReportViolation(const std::string& dump);

// Oracle checks, one per hardware tester. Each is called at the moment the
// hardware filter rejected a pair; it re-runs the exact predicate and
// reports a violation when the exact answer contradicts the rejection.

// hw_intersection rejected: the boundaries must not intersect.
void CheckIntersectionReject(const geom::Polygon& p, const geom::Polygon& q,
                             const geom::Box& viewport,
                             const HwConfig& config);

// The exact run-pair engine (algo::RunPairIntersect) found no boundary
// crossing: the boundaries must not intersect. The dump is the reject's.
void CheckNoCrossing(const geom::Polygon& p, const geom::Polygon& q,
                     const geom::Box& viewport, const HwConfig& config);

// hw_distance rejected: the boundaries must not be within distance d.
void CheckDistanceReject(const geom::Polygon& p, const geom::Polygon& q,
                         double d, const geom::Box& viewport, double width_px,
                         const HwConfig& config);

// hw_filled rejected: the closed regions must be disjoint (filled rendering
// covers containment, so the exact predicate here is the full test).
void CheckFilledReject(const geom::Polygon& p, const geom::Polygon& q,
                       const geom::Box& viewport, const HwConfig& config);

// hw_nearest answered: the refined result must equal the brute-force
// nearest site (smallest index on ties).
void CheckNearestResult(const std::vector<geom::Point>& sites, geom::Point q,
                        int64_t got);

// Interval filter decided TRUE HIT: the closed regions must intersect.
// Unlike the hardware testers the interval filter can *accept* without
// refinement, so the oracle guards both sides of its decisions.
void CheckIntervalAccept(const geom::Polygon& p, const geom::Polygon& q,
                         const HwConfig& config);

// Interval filter decided TRUE MISS: the closed regions must be disjoint.
void CheckIntervalReject(const geom::Polygon& p, const geom::Polygon& q,
                         const HwConfig& config);

}  // namespace hasj::core::paranoid

#endif  // HASJ_CORE_PARANOID_H_
