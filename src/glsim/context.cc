#include "glsim/context.h"

#include "common/macros.h"
#include "glsim/raster.h"
#include "obs/names.h"

namespace hasj::glsim {

RenderContext::RenderContext(int width, int height)
    : width_(width),
      height_(height),
      color_buffer_(width, height),
      accum_buffer_(width, height),
      transform_{geom::Box(0.0, 0.0, width, height), 1.0, 1.0} {
  HASJ_CHECK(width > 0 && height > 0);
}

WindowTransform WindowTransform::Make(const geom::Box& data_rect, int width,
                                      int height) {
  HASJ_CHECK(!data_rect.IsEmpty());
  WindowTransform t;
  t.data_rect = data_rect;
  // Inflate degenerate extents so the projection stays finite (a data rect
  // can collapse to a line or point when two MBRs touch). The pad must be
  // large relative to the coordinate magnitude or it is absorbed by
  // floating-point rounding and the extent stays zero.
  const double w = t.data_rect.Width();
  const double h = t.data_rect.Height();
  const double magnitude = std::max(
      {w, h, std::fabs(t.data_rect.min_x), std::fabs(t.data_rect.max_x),
       std::fabs(t.data_rect.min_y), std::fabs(t.data_rect.max_y), 1.0});
  const double pad = magnitude * 1e-9;
  if (w <= 0.0) {
    t.data_rect.min_x -= pad;
    t.data_rect.max_x += pad;
  }
  if (h <= 0.0) {
    t.data_rect.min_y -= pad;
    t.data_rect.max_y += pad;
  }
  t.scale_x = width / t.data_rect.Width();
  t.scale_y = height / t.data_rect.Height();
  return t;
}

void RenderContext::set_metrics(obs::Registry* metrics) {
  if (metrics == nullptr) {
    draw_segments_ = nullptr;
    draw_points_ = nullptr;
    accum_ops_ = nullptr;
    minmax_searches_ = nullptr;
    clears_ = nullptr;
    return;
  }
  draw_segments_ = &metrics->GetCounter(obs::kGlsimDrawSegments);
  draw_points_ = &metrics->GetCounter(obs::kGlsimDrawPoints);
  accum_ops_ = &metrics->GetCounter(obs::kGlsimAccumOps);
  minmax_searches_ = &metrics->GetCounter(obs::kGlsimMinmaxSearches);
  clears_ = &metrics->GetCounter(obs::kGlsimClears);
}

Status RenderContext::BeginRender() {
  if (faults_ == nullptr) return Status::Ok();
  if (Status s = faults_->Check(FaultSite::kFramebufferAlloc); !s.ok()) {
    return s;
  }
  return faults_->Check(FaultSite::kRenderPass);
}

Status RenderContext::BeginScan() {
  if (faults_ == nullptr) return Status::Ok();
  return faults_->Check(FaultSite::kScanReadback);
}

void RenderContext::Clear(Rgb value) {
  if (clears_ != nullptr) clears_->Increment();
  color_buffer_.Clear(value);
}

void RenderContext::ClearAccum() { accum_buffer_.Clear(); }

void RenderContext::SetLineWidth(double width) {
  HASJ_CHECK(width > 0.0 && width <= limits_.max_line_width);
  line_width_ = width;
}

void RenderContext::SetPointSize(double size) {
  HASJ_CHECK(size > 0.0 && size <= limits_.max_point_size);
  point_size_ = size;
}

void RenderContext::DrawSegmentAA(geom::Point a, geom::Point b) {
  if (draw_segments_ != nullptr) draw_segments_->Increment();
  RasterizeLineAA(ToWindow(a), ToWindow(b), line_width_, width_, height_,
                  [&](int x, int y) { color_buffer_.Set(x, y, color_); });
}

void RenderContext::DrawLineLoop(std::span<const geom::Point> ring) {
  const size_t n = ring.size();
  if (n < 2) return;
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    DrawSegmentAA(ring[j], ring[i]);
  }
}

void RenderContext::DrawLineStrip(std::span<const geom::Point> chain) {
  for (size_t i = 1; i < chain.size(); ++i) {
    DrawSegmentAA(chain[i - 1], chain[i]);
  }
}

void RenderContext::DrawPoints(std::span<const geom::Point> points) {
  if (draw_points_ != nullptr) {
    draw_points_->Add(static_cast<int64_t>(points.size()));
  }
  for (const geom::Point& p : points) {
    RasterizeWidePoint(ToWindow(p), point_size_, width_, height_,
                       [&](int x, int y) { color_buffer_.Set(x, y, color_); });
  }
}

void RenderContext::DrawPolygonFilled(const geom::Polygon& polygon) {
  std::vector<geom::Point> window_ring;
  window_ring.reserve(polygon.size());
  for (const geom::Point& p : polygon.vertices()) {
    window_ring.push_back(ToWindow(p));
  }
  RasterizePolygonFill(std::span<const geom::Point>(window_ring), width_,
                       height_,
                       [&](int x, int y) { color_buffer_.Set(x, y, color_); });
}

void RenderContext::Accum(AccumOp op, float value) {
  if (accum_ops_ != nullptr) accum_ops_->Increment();
  switch (op) {
    case AccumOp::kLoad:
      accum_buffer_.Load(color_buffer_, value);
      break;
    case AccumOp::kAccum:
      accum_buffer_.Accum(color_buffer_, value);
      break;
    case AccumOp::kReturn:
      accum_buffer_.Return(color_buffer_, value);
      break;
  }
}

}  // namespace hasj::glsim
