#include "data/generator.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/random.h"

namespace hasj::data {

GeneratorProfile GeneratorProfile::Scaled(double fraction) const {
  GeneratorProfile p = *this;
  p.count = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(count * fraction)));
  // Shrink the extent by sqrt(fraction) per dimension so that object sizes
  // and spatial density — the quantities per-pair comparison costs depend
  // on — are the same at every scale; only the number of objects changes.
  const double shrink = std::sqrt(std::min(1.0, std::max(fraction, 1e-12)));
  const geom::Point c = extent.Center();
  p.extent = geom::Box(c.x - extent.Width() * 0.5 * shrink,
                       c.y - extent.Height() * 0.5 * shrink,
                       c.x + extent.Width() * 0.5 * shrink,
                       c.y + extent.Height() * 0.5 * shrink);
  return p;
}

geom::Polygon GenerateBlobPolygon(geom::Point center, double radius,
                                  int vertices, double roughness,
                                  uint64_t seed) {
  HASJ_CHECK(vertices >= 3);
  HASJ_CHECK(radius > 0.0);
  Rng rng(seed);

  // Multi-octave radial noise: low frequencies bend the outline, high
  // frequencies add the jagged detail real land-cover polygons have.
  constexpr int kOctaves = 4;
  const double freqs[kOctaves] = {2.0, 5.0, 11.0, 23.0};
  double amps[kOctaves];
  double phases[kOctaves];
  double amp_sum = 0.0;
  for (int k = 0; k < kOctaves; ++k) {
    amps[k] = 1.0 / (k + 1);
    amp_sum += amps[k];
    phases[k] = rng.Uniform(0.0, 2.0 * 3.14159265358979323846);
  }

  std::vector<geom::Point> pts;
  pts.reserve(static_cast<size_t>(vertices));
  const double two_pi = 2.0 * 3.14159265358979323846;
  for (int i = 0; i < vertices; ++i) {
    // Jittered but strictly increasing angles keep the polygon star-shaped
    // around `center`, hence always simple.
    const double theta =
        two_pi * (static_cast<double>(i) + 0.8 * rng.NextDouble()) / vertices;
    double noise = 0.0;
    for (int k = 0; k < kOctaves; ++k) {
      noise += amps[k] * std::sin(freqs[k] * theta + phases[k]);
    }
    noise /= amp_sum;                       // in [-1, 1]
    noise += 0.25 * (rng.NextDouble() - 0.5);  // per-vertex jaggedness
    const double r = radius * std::max(0.15, 1.0 + roughness * noise);
    pts.push_back(
        {center.x + r * std::cos(theta), center.y + r * std::sin(theta)});
  }
  return geom::Polygon(std::move(pts));
}

namespace {

double WrapAngle(double a) {
  const double two_pi = 2.0 * 3.14159265358979323846;
  a = std::fmod(a + 3.14159265358979323846, two_pi);
  if (a < 0.0) a += two_pi;
  return a - 3.14159265358979323846;
}

// Buffers a path into the ring of a simple polygon: left offsets forward,
// right offsets backward, per-vertex averaged normals. Requires the path to be
// monotone along some axis with per-step turn and half-width bounds (the
// generators guarantee this).
std::vector<geom::Point> BufferPath(const std::vector<geom::Point>& path,
                                    double half_width) {
  const size_t n = path.size();
  const auto normal_at = [&](size_t i) {
    const geom::Point d0 = i == 0 ? path[1] - path[0] : path[i] - path[i - 1];
    const geom::Point d1 =
        i + 1 == n ? path[n - 1] - path[n - 2] : path[i + 1] - path[i];
    geom::Point d = d0 + d1;
    const double len = geom::Norm(d);
    return geom::Point{-d.y / len, d.x / len};
  };
  std::vector<geom::Point> ring;
  ring.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    ring.push_back(path[i] + normal_at(i) * half_width);
  }
  for (size_t i = n; i-- > 0;) {
    ring.push_back(path[i] - normal_at(i) * half_width);
  }
  return ring;
}

}  // namespace

geom::Polygon GenerateSnakePolygon(geom::Point center, double radius,
                                   int vertices, double curvature,
                                   uint64_t seed) {
  HASJ_CHECK(vertices >= 8);
  HASJ_CHECK(radius > 0.0);
  Rng rng(seed);
  const int segments = vertices / 2 - 1;

  // Meandering path with unit steps. The heading is kept within ±0.9 rad of
  // +x and its per-step change within ±0.5 rad, so the path is x-monotone
  // with turning radius > 2; buffering such a path with half-width < 0.4
  // keeps both offset chains x-monotone and non-crossing, hence the ring is
  // simple by construction.
  std::vector<geom::Point> path;
  path.reserve(static_cast<size_t>(segments) + 1);
  geom::Point p{0.0, 0.0};
  path.push_back(p);
  double heading = rng.Uniform(-0.4, 0.4);
  for (int i = 0; i < segments; ++i) {
    double delta = rng.Normal(0.0, curvature);
    delta = std::clamp(delta, -0.5, 0.5);
    heading = std::clamp(0.98 * heading + delta, -0.9, 0.9);
    p = {p.x + std::cos(heading), p.y + std::sin(heading)};
    path.push_back(p);
  }

  const double half_width = rng.Uniform(0.18, 0.38);
  std::vector<geom::Point> ring = BufferPath(path, half_width);

  // Rotate by a random angle first (rotation changes the axis-aligned MBR
  // of an elongated shape), then scale so the MBR area matches a blob of
  // the given radius, then translate to the center.
  const double angle = rng.Uniform(0.0, 2.0 * 3.14159265358979323846);
  const double ca = std::cos(angle), sa = std::sin(angle);
  geom::Box bounds = geom::Box::Empty();
  for (geom::Point& v : ring) {
    v = {ca * v.x - sa * v.y, sa * v.x + ca * v.y};
    bounds.Extend(v);
  }
  const double mbr_side =
      std::sqrt(std::max(1e-12, bounds.Width() * bounds.Height()));
  const double scale = 2.0 * radius / mbr_side;
  const geom::Point mid = bounds.Center();
  for (geom::Point& v : ring) {
    v = {center.x + (v.x - mid.x) * scale, center.y + (v.y - mid.y) * scale};
  }
  return geom::Polygon(std::move(ring));
}

double TerrainFlowAngle(geom::Point p) {
  // Smooth direction field with features a few degrees across (the extents
  // are lon/lat boxes); coefficients are fixed so every dataset sees the
  // same topography.
  const double s = std::sin(0.53 * p.x + 0.91 * p.y) +
                   std::sin(0.17 * p.x - 0.33 * p.y + 1.7) +
                   0.6 * std::sin(1.07 * p.x + 0.19 * p.y + 4.2);
  return 1.05 * s;  // radians, roughly in [-2.7, 2.7]
}


geom::Polygon GenerateTerrainSnakePolygon(geom::Point center, double radius,
                                          int vertices, double curvature,
                                          uint64_t seed) {
  HASJ_CHECK(vertices >= 8);
  HASJ_CHECK(radius > 0.0);
  Rng rng(seed);
  const int segments = vertices / 2 - 1;

  // The base direction is the flow at the center; the path deviates from it
  // by at most 0.9 rad, keeping it monotone along the base axis (hence the
  // buffered polygon simple), while tracking the local flow.
  const double base = TerrainFlowAngle(center);
  const double length = 2.6 * radius;
  const double step = length / segments;
  geom::Point p{center.x - 0.45 * length * std::cos(base),
                center.y - 0.45 * length * std::sin(base)};
  std::vector<geom::Point> path;
  path.reserve(static_cast<size_t>(segments) + 1);
  path.push_back(p);
  double noise = 0.0;
  for (int i = 0; i < segments; ++i) {
    const double desired =
        std::clamp(WrapAngle(TerrainFlowAngle(p) - base), -0.85, 0.85);
    noise = std::clamp(0.95 * noise + rng.Normal(0.0, curvature), -0.4, 0.4);
    const double off = std::clamp(desired + noise, -0.9, 0.9);
    const double heading = base + off;
    p = {p.x + step * std::cos(heading), p.y + step * std::sin(heading)};
    path.push_back(p);
  }
  const double half_width = step * rng.Uniform(0.18, 0.38);
  return geom::Polygon(BufferPath(path, half_width));
}

Dataset GenerateDataset(const GeneratorProfile& profile) {
  HASJ_CHECK(profile.count > 0);
  HASJ_CHECK(!profile.extent.IsEmpty());
  HASJ_CHECK(profile.mean_vertices >= 3.0);
  Rng rng(profile.seed);

  // Vertex counts: log-normal matched to the target mean (before clipping),
  // clipped to the Table 2 min/max.
  const double sigma = profile.sigma;
  const double mu = std::log(profile.mean_vertices) - 0.5 * sigma * sigma;
  std::vector<int> counts(static_cast<size_t>(profile.count));
  double sum_nv = 0.0;
  for (int& nv : counts) {
    const double draw = rng.LogNormal(mu, sigma);
    nv = static_cast<int>(std::llround(std::clamp(
        draw, static_cast<double>(profile.min_vertices),
        static_cast<double>(profile.max_vertices))));
    sum_nv += nv;
  }

  // Size objects so that total MBR area is roughly coverage * extent area,
  // with per-object area proportional to its vertex count (complex objects
  // are big, like in the real datasets).
  const double extent_area = profile.extent.Area();
  const double k =
      std::sqrt(profile.coverage * extent_area / (4.0 * std::max(1.0, sum_nv)));

  // Optional clustered layout.
  std::vector<geom::Point> cluster_centers;
  double cluster_spread = 0.0;
  if (profile.clusters > 0) {
    for (int c = 0; c < profile.clusters; ++c) {
      cluster_centers.push_back(
          {rng.Uniform(profile.extent.min_x, profile.extent.max_x),
           rng.Uniform(profile.extent.min_y, profile.extent.max_y)});
    }
    cluster_spread =
        std::sqrt(extent_area / profile.clusters) * 0.35;
  }

  Dataset out(profile.name);
  for (int64_t i = 0; i < profile.count; ++i) {
    const int nv = counts[static_cast<size_t>(i)];
    const double radius = k * std::sqrt(static_cast<double>(nv));
    geom::Point center;
    if (profile.clusters > 0 && rng.Bernoulli(0.8)) {
      const geom::Point c = cluster_centers[static_cast<size_t>(
          rng.UniformInt(0, profile.clusters - 1))];
      center = {c.x + rng.Normal(0.0, cluster_spread),
                c.y + rng.Normal(0.0, cluster_spread)};
    } else {
      center = {rng.Uniform(profile.extent.min_x, profile.extent.max_x),
                rng.Uniform(profile.extent.min_y, profile.extent.max_y)};
    }
    if (nv >= 8 && rng.Bernoulli(profile.snake_fraction)) {
      out.Add(profile.follow_terrain
                  ? GenerateTerrainSnakePolygon(center, radius, nv,
                                                profile.snake_curvature,
                                                rng.Next())
                  : GenerateSnakePolygon(center, radius, nv,
                                         profile.snake_curvature, rng.Next()));
    } else {
      out.Add(GenerateBlobPolygon(center, radius, nv, profile.roughness,
                                  rng.Next()));
    }
  }
  return out;
}

std::vector<UpdateOp> GenerateUpdateStream(const UpdateStreamProfile& profile) {
  const GeneratorProfile& obj = profile.objects;
  HASJ_CHECK(profile.operations >= 0);
  HASJ_CHECK(!obj.extent.IsEmpty());
  HASJ_CHECK(obj.mean_vertices >= 3.0);
  HASJ_CHECK(profile.insert_fraction >= 0.0 && profile.insert_fraction <= 1.0);
  Rng rng(profile.seed);

  // Same vertex-count and sizing model as GenerateDataset, calibrated
  // against the reference population obj.count so inserted objects are
  // exchangeable with a base dataset drawn from the same profile.
  const double sigma = obj.sigma;
  const double mu = std::log(obj.mean_vertices) - 0.5 * sigma * sigma;
  const double expected_sum_nv =
      obj.mean_vertices * static_cast<double>(std::max<int64_t>(1, obj.count));
  const double k = std::sqrt(obj.coverage * obj.extent.Area() /
                             (4.0 * std::max(1.0, expected_sum_nv)));

  std::vector<UpdateOp> ops;
  ops.reserve(static_cast<size_t>(profile.operations));
  std::vector<int64_t> live;
  int64_t next_key = 0;
  for (int64_t i = 0; i < profile.operations; ++i) {
    UpdateOp op;
    if (live.empty() || rng.Bernoulli(profile.insert_fraction)) {
      const double draw = rng.LogNormal(mu, sigma);
      const int nv = static_cast<int>(std::llround(std::clamp(
          draw, static_cast<double>(obj.min_vertices),
          static_cast<double>(obj.max_vertices))));
      const double radius = k * std::sqrt(static_cast<double>(nv));
      const geom::Point center = {
          rng.Uniform(obj.extent.min_x, obj.extent.max_x),
          rng.Uniform(obj.extent.min_y, obj.extent.max_y)};
      op.kind = UpdateOp::Kind::kInsert;
      op.key = next_key++;
      if (nv >= 8 && rng.Bernoulli(obj.snake_fraction)) {
        op.polygon = obj.follow_terrain
                         ? GenerateTerrainSnakePolygon(
                               center, radius, nv, obj.snake_curvature,
                               rng.Next())
                         : GenerateSnakePolygon(center, radius, nv,
                                                obj.snake_curvature,
                                                rng.Next());
      } else {
        op.polygon = GenerateBlobPolygon(center, radius, nv, obj.roughness,
                                         rng.Next());
      }
      live.push_back(op.key);
    } else {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      op.kind = UpdateOp::Kind::kDelete;
      op.key = live[pick];
      live[pick] = live.back();
      live.pop_back();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace hasj::data
