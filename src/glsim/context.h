#ifndef HASJ_GLSIM_CONTEXT_H_
#define HASJ_GLSIM_CONTEXT_H_

#include <span>

#include "common/fault.h"
#include "common/status.h"
#include "geom/box.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "glsim/framebuffer.h"
#include "obs/metrics.h"

namespace hasj::glsim {

// Hardware capability limits modeled after the paper's testbed (GeForce4):
// the maximum anti-aliased line width is 10 pixels, which is what forces
// the software fallback at large query distances (§4.4).
struct HwLimits {
  double max_line_width = 10.0;
  double max_point_size = 10.0;
};

// GL_ACCUM-style accumulation operations (the subset Algorithm 3.1 uses).
enum class AccumOp {
  kLoad,    // accum = color * value
  kAccum,   // accum += color * value
  kReturn,  // color = clamp(accum * value)
};

// The orthographic data-rect -> window projection. RenderContext holds one,
// and the bitmask hardware step (core/bitmask_step.h) projects through the
// same code, so both backends see identical window coordinates.
struct WindowTransform {
  geom::Box data_rect;
  double scale_x = 1.0;
  double scale_y = 1.0;

  // data_rect -> [0, width] x [0, height]. A degenerate data_rect (zero
  // width or height) is inflated minimally so the projection stays finite;
  // the pad is relative to the coordinate magnitude or it would be absorbed
  // by floating-point rounding.
  static WindowTransform Make(const geom::Box& data_rect, int width,
                              int height);

  geom::Point ToWindow(geom::Point p) const {
    return {(p.x - data_rect.min_x) * scale_x,
            (p.y - data_rect.min_y) * scale_y};
  }
};

// Off-screen rendering context emulating the fixed-function OpenGL pipeline
// fragment the paper relies on: an orthographic projection of a data-space
// rectangle onto a small window, anti-aliased line/point rasterization with
// blending disabled, a color buffer, an accumulation buffer, and the
// hardware Minmax query.
//
// The projection maps `data_rect` onto the full window; rendering is
// clipped to the viewport like GL clipping would.
class RenderContext {
 public:
  RenderContext(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  const HwLimits& limits() const { return limits_; }
  void set_limits(const HwLimits& limits) { limits_ = limits; }

  // Attaches a metrics registry counting the simulated hardware primitives
  // (glsim.* counters, obs/names.h). Null (the default) detaches: every
  // recording site is one pointer test. Not owned.
  void set_metrics(obs::Registry* metrics);

  // Attaches a fault injector (DESIGN.md §11). Null (the default) means
  // the context cannot fail: BeginRender/BeginScan reduce to one pointer
  // test, keeping the production path zero-cost like set_metrics. Not
  // owned.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

  // Fault gates for the two failable phases of a per-pair hardware test.
  // Callers must consume the Status (the domain lint enforces it in core/)
  // and route a non-OK pair to the exact software test.
  //
  // BeginRender models (re)binding the off-screen buffer for a pair plus
  // starting its render pass — it checks kFramebufferAlloc then
  // kRenderPass. BeginScan models the coverage probe/readback
  // (kScanReadback). Neither mutates any buffer state: on a fault the
  // caller simply abandons the pair's hardware attempt.
  [[nodiscard]] Status BeginRender();
  [[nodiscard]] Status BeginScan();

  // Orthographic projection: data_rect -> [0, width] x [0, height]. A
  // degenerate data_rect (zero width or height) is inflated minimally so
  // the projection stays finite.
  void SetDataRect(const geom::Box& data_rect) {
    transform_ = WindowTransform::Make(data_rect, width_, height_);
  }
  geom::Point ToWindow(geom::Point data_point) const {
    return transform_.ToWindow(data_point);
  }

  void Clear(Rgb value = {});
  void ClearAccum();

  void SetColor(Rgb color) { color_ = color; }
  // Width/size in pixels; values beyond the hardware limit are an error
  // (callers must check limits() and fall back to software, as the paper's
  // implementation does).
  void SetLineWidth(double width);
  void SetPointSize(double size);

  // Anti-aliased, blending-disabled primitives (the paper's §2.2.2 setup).
  // Inputs are data-space coordinates. Pixels covered more than once per
  // draw call are written once (GL writes fragments, not additive color).
  void DrawLineLoop(std::span<const geom::Point> ring);
  void DrawLineStrip(std::span<const geom::Point> chain);
  void DrawSegment(geom::Point a, geom::Point b) { DrawSegmentAA(a, b); }
  void DrawPoints(std::span<const geom::Point> points);
  // Filled simple polygon via the scanline point-sampling rule.
  void DrawPolygonFilled(const geom::Polygon& polygon);

  void Accum(AccumOp op, float value);

  // Hardware Minmax over the color buffer (no readback).
  MinMax Minmax() const {
    if (minmax_searches_ != nullptr) minmax_searches_->Increment();
    return color_buffer_.ComputeMinMax();
  }

  const ColorBuffer& color_buffer() const { return color_buffer_; }

 private:
  void DrawSegmentAA(geom::Point a, geom::Point b);

  int width_;
  int height_;
  HwLimits limits_;
  ColorBuffer color_buffer_;
  AccumBuffer accum_buffer_;
  WindowTransform transform_;
  Rgb color_{1.0f, 1.0f, 1.0f};
  double line_width_ = 1.0;
  double point_size_ = 1.0;
  FaultInjector* faults_ = nullptr;  // null = cannot fail
  // Resolved once in set_metrics(); null = detached.
  obs::Counter* draw_segments_ = nullptr;
  obs::Counter* draw_points_ = nullptr;
  obs::Counter* accum_ops_ = nullptr;
  obs::Counter* minmax_searches_ = nullptr;
  obs::Counter* clears_ = nullptr;
};

}  // namespace hasj::glsim

#endif  // HASJ_GLSIM_CONTEXT_H_
