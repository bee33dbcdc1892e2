#include "core/paranoid.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "algo/polygon_distance.h"
#include "algo/polygon_intersect.h"
#include "geom/wkt.h"
#include "glsim/context.h"
#include "glsim/pixel_mask.h"
#include "glsim/raster.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace hasj::core::paranoid {
namespace {

// Marks one oracle invocation: an instant event on the calling worker's
// trace track plus the paranoid.checks counter. Paranoid builds trade speed
// for verification, so the per-call registry lookup is acceptable here.
void NoteOracleCheck(const HwConfig& config) {
  if (config.trace != nullptr) {
    config.trace->Instant("paranoid-oracle", "paranoid");
  }
  if (config.metrics != nullptr) {
    config.metrics->GetCounter(obs::kParanoidChecks).Increment();
  }
}

ViolationHandler& Handler() {
  static ViolationHandler handler;
  return handler;
}

void Append(std::string& out, const char* fmt, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  out += buf;
}

void Append1(std::string& out, const char* fmt, double a) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a);
  out += buf;
}

// Renders the two boundaries the way the bitmask backend does and formats
// the window as ASCII art: '.' empty, 'a'/'b' single coverage, 'X' both —
// an 'X'-free grid is exactly a hardware reject, so the dump shows what the
// filter saw when it (wrongly) dropped the pair. Rows are printed top-down
// (window row vh-1 first).
std::string RenderPair(const geom::Polygon& p, const geom::Polygon& q,
                       const geom::Box& viewport, const HwConfig& config,
                       double width_px, bool capsule_ends) {
  const int res = config.resolution;
  glsim::RenderContext ctx(res, res);
  ctx.set_limits(config.limits);
  ctx.SetDataRect(viewport);
  glsim::PixelMask mask_a(res, res);
  glsim::PixelMask mask_b(res, res);

  const auto draw = [&](const geom::Polygon& poly, glsim::PixelMask& mask) {
    const auto set = [&mask](int x, int y) { mask.Set(x, y); };
    for (size_t i = 0; i < poly.size(); ++i) {
      const geom::Segment e = poly.edge(i);
      if (!e.Bounds().Intersects(viewport)) continue;
      const geom::Point a = ctx.ToWindow(e.a);
      const geom::Point b = ctx.ToWindow(e.b);
      glsim::RasterizeLineAA(a, b, width_px, res, res, set);
      if (capsule_ends) {
        glsim::RasterizeWidePoint(a, width_px, res, res, set);
        glsim::RasterizeWidePoint(b, width_px, res, res, set);
      }
    }
  };
  draw(p, mask_a);
  draw(q, mask_b);

  std::string art;
  for (int y = res - 1; y >= 0; --y) {
    art += "    ";
    for (int x = 0; x < res; ++x) {
      const bool in_a = mask_a.Test(x, y);
      const bool in_b = mask_b.Test(x, y);
      art += in_a && in_b ? 'X' : in_a ? 'a' : in_b ? 'b' : '.';
    }
    art += '\n';
  }
  return art;
}

std::string PairDump(const char* tester, const char* claim,
                     const geom::Polygon& p, const geom::Polygon& q,
                     const geom::Box& viewport, const HwConfig& config,
                     double width_px, bool capsule_ends,
                     const char* decider = "hardware filter rejected") {
  std::string dump = "CONSERVATIVENESS VIOLATION in ";
  dump += tester;
  dump += ": ";
  dump += decider;
  dump += " a pair the exact predicate says ";
  dump += claim;
  dump += "\n  P = ";
  dump += geom::ToWkt(p);
  dump += "\n  Q = ";
  dump += geom::ToWkt(q);
  dump += "\n  viewport = [";
  Append(dump, "%.17g, %.17g", viewport.min_x, viewport.min_y);
  dump += "] - [";
  Append(dump, "%.17g, %.17g", viewport.max_x, viewport.max_y);
  dump += "]\n";
  Append(dump, "  resolution = %.0f, width_px = %.17g\n",
         static_cast<double>(config.resolution), width_px);
  dump += config.backend == HwBackend::kBitmask ? "  backend = bitmask\n"
                                                : "  backend = faithful\n";
  dump += "  rendered pair ('a'/'b' one boundary, 'X' both, '.' empty):\n";
  dump += RenderPair(p, q, viewport, config, width_px, capsule_ends);
  return dump;
}

}  // namespace

void SetViolationHandlerForTest(ViolationHandler handler) {
  Handler() = std::move(handler);
}

void ReportViolation(const std::string& dump) {
  if (Handler()) {
    Handler()(dump);
    return;
  }
  std::fprintf(stderr, "%s\n", dump.c_str());
  std::abort();
}

void CheckIntersectionReject(const geom::Polygon& p, const geom::Polygon& q,
                             const geom::Box& viewport,
                             const HwConfig& config) {
  NoteOracleCheck(config);
  if (!algo::BoundariesIntersect(p, q)) return;
  ReportViolation(PairDump("hw_intersection", "intersects", p, q, viewport,
                           config, config.line_width,
                           /*capsule_ends=*/false));
}

void CheckNoCrossing(const geom::Polygon& p, const geom::Polygon& q,
                     const geom::Box& viewport, const HwConfig& config) {
  NoteOracleCheck(config);
  if (!algo::BoundariesIntersect(p, q)) return;
  ReportViolation(PairDump("hw_intersection", "intersects", p, q, viewport,
                           config, config.line_width, /*capsule_ends=*/false,
                           "run-pair engine found no crossing in"));
}

void CheckDistanceReject(const geom::Polygon& p, const geom::Polygon& q,
                         double d, const geom::Box& viewport, double width_px,
                         const HwConfig& config) {
  NoteOracleCheck(config);
  if (!algo::BoundariesWithinDistance(p, q, d)) return;
  std::string dump = PairDump("hw_distance", "is within distance", p, q,
                              viewport, config, width_px,
                              /*capsule_ends=*/true);
  Append1(dump, "  d = %.17g\n", d);
  ReportViolation(dump);
}

void CheckFilledReject(const geom::Polygon& p, const geom::Polygon& q,
                       const geom::Box& viewport, const HwConfig& config) {
  NoteOracleCheck(config);
  if (!algo::PolygonsIntersect(p, q)) return;
  ReportViolation(PairDump("hw_filled", "intersects", p, q, viewport, config,
                           config.line_width, /*capsule_ends=*/false));
}

namespace {

// Dump for the interval filter's decisions: no viewport or rendering — the
// decision came from precomputed interval lists, not a framebuffer — so the
// dump carries the exact geometry needed to replay DecidePair.
std::string IntervalDump(const char* claim, const geom::Polygon& p,
                         const geom::Polygon& q, const HwConfig& config) {
  std::string dump =
      "CONSERVATIVENESS VIOLATION in interval_approx: interval filter "
      "decided a pair the exact predicate says ";
  dump += claim;
  dump += "\n  P = ";
  dump += geom::ToWkt(p);
  dump += "\n  Q = ";
  dump += geom::ToWkt(q);
  dump += "\n";
  Append(dump, "  interval_grid_bits = %.0f, interval_budget_bytes = %.0f\n",
         static_cast<double>(config.interval_grid_bits),
         static_cast<double>(config.interval_budget_bytes));
  return dump;
}

}  // namespace

void CheckIntervalAccept(const geom::Polygon& p, const geom::Polygon& q,
                         const HwConfig& config) {
  NoteOracleCheck(config);
  if (algo::PolygonsIntersect(p, q)) return;
  ReportViolation(IntervalDump("does NOT intersect (bad TRUE HIT)", p, q,
                               config));
}

void CheckIntervalReject(const geom::Polygon& p, const geom::Polygon& q,
                         const HwConfig& config) {
  NoteOracleCheck(config);
  if (!algo::PolygonsIntersect(p, q)) return;
  ReportViolation(IntervalDump("DOES intersect (bad TRUE MISS)", p, q,
                               config));
}

void CheckNearestResult(const std::vector<geom::Point>& sites, geom::Point q,
                        int64_t got) {
  int64_t want = 0;
  double want_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < sites.size(); ++i) {
    const double dx = sites[i].x - q.x;
    const double dy = sites[i].y - q.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 < want_d2) {
      want_d2 = d2;
      want = static_cast<int64_t>(i);
    }
  }
  if (got == want) return;
  std::string dump =
      "CONSERVATIVENESS VIOLATION in hw_nearest: refined answer differs "
      "from the brute-force nearest site\n";
  Append(dump, "  query = (%.17g, %.17g)\n", q.x, q.y);
  Append(dump, "  got site %.0f, want site %.0f\n", static_cast<double>(got),
         static_cast<double>(want));
  ReportViolation(dump);
}

}  // namespace hasj::core::paranoid
