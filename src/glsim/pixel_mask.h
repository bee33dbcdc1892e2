#ifndef HASJ_GLSIM_PIXEL_MASK_H_
#define HASJ_GLSIM_PIXEL_MASK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "glsim/rowspan.h"

namespace hasj::glsim {

// A width x height pixel mask over caller-owned words, in the two row-span
// kernel layouts (rowspan.h):
//  * width*height <= 64 ("packed"): the whole grid is one word, pixel
//    (x, y) = bit y*width + x — bit-for-bit the historical flat layout, so
//    the paper's 8x8 per-pair window stays a single-word mask.
//  * otherwise row-aligned: pixel (x, y) = bit x&63 of word
//    y*stride_words + (x>>6). Costs up to one partial word per row over
//    the flat layout but makes every row word-addressable, which is what
//    the SIMD fill/probe kernels need.
// A res x res PixelMask and a res x res atlas tile (glsim/atlas.h) share
// this layout, so the bitmask hardware step fills and probes both through
// one view.
class MaskView {
 public:
  MaskView(uint64_t* words, int width, int height)
      : words_(words),
        width_(width),
        height_(height),
        packed_(static_cast<int64_t>(width) * height <= 64),
        stride_words_(packed_ ? 1 : (width + 63) / 64) {
    HASJ_CHECK(width > 0 && height > 0);
    if (packed_) {
      for (int y = 0; y < height; ++y) {
        row_starts_ |= uint64_t{1} << (y * width);
      }
    }
  }

  // Words a width x height mask occupies.
  static size_t WordCount(int width, int height) {
    if (static_cast<int64_t>(width) * height <= 64) return 1;
    return static_cast<size_t>((width + 63) / 64) *
           static_cast<size_t>(height);
  }

  int width() const { return width_; }

  // Applies a primitive's row-span buffer through the given kernel engine
  // (rowspan.h) — the hot path of the bitmask hardware step; PixelMask::Set
  // is the per-pixel reference the differential tests compare against.
  FillResult FillSpans(const RowSpanEngine& engine,
                       RowSpanBuffer* spans) const {
    if (packed_) return engine.FillPacked(spans, width_, words_);
    return engine.FillRows(spans, width_, stride_words_, words_);
  }
  ProbeResult ProbeSpans(const RowSpanEngine& engine,
                         RowSpanBuffer* spans) const {
    if (packed_) return engine.ProbePacked(spans, width_, words_);
    return engine.ProbeRows(spans, width_, stride_words_, words_);
  }

  // Whether every pixel / some pixel of `box` is set. The box must lie
  // inside the mask, as glsim::LineAAPixelBox's boxes do. The hardware
  // step asks these before generating a primitive's spans: a fill whose
  // box is all set and a probe whose box has no set pixel are no-ops.
  bool AllSet(const PixelBox& box) const {
    HASJ_DCHECK(box.x0 >= 0 && box.x0 <= box.x1 && box.x1 < width_ &&
                box.y0 >= 0 && box.y0 <= box.y1 && box.y1 < height_);
    if (packed_) {
      const uint64_t bits = PackedBoxBits(box);
      return (words_[0] & bits) == bits;
    }
    for (int y = box.y0; y <= box.y1; ++y) {
      if (!RowWordsAllSet(RowWords(y), box.x0, box.x1)) return false;
    }
    return true;
  }
  bool AnySet(const PixelBox& box) const {
    HASJ_DCHECK(box.x0 >= 0 && box.x0 <= box.x1 && box.x1 < width_ &&
                box.y0 >= 0 && box.y0 <= box.y1 && box.y1 < height_);
    if (packed_) return (words_[0] & PackedBoxBits(box)) != 0;
    for (int y = box.y0; y <= box.y1; ++y) {
      if (ProbeRowWords(RowWords(y), box.x0, box.x1)) return true;
    }
    return false;
  }

 private:
  // Packed layout: the box's bits, its column mask copied into every row
  // by one multiply (no carries: each copy fits its row's width bits) and
  // cut to rows y0..y1.
  uint64_t PackedBoxBits(const PixelBox& box) const {
    const uint64_t cols = RowMask(box.x0, box.x1) * row_starts_;
    return cols & RowMask(box.y0 * width_, (box.y1 + 1) * width_ - 1);
  }

  // Row-aligned layout: the words of row y.
  const uint64_t* RowWords(int y) const {
    return words_ + static_cast<size_t>(y) * stride_words_;
  }

  // Whether bits c0..c1 of a row are all set (the AllSet twin of
  // ProbeRowWords, rowspan.h).
  static bool RowWordsAllSet(const uint64_t* row, int c0, int c1) {
    const int w0 = c0 >> 6;
    const int w1 = c1 >> 6;
    const uint64_t head = ~uint64_t{0} << (c0 & 63);
    const uint64_t tail = ~uint64_t{0} >> (63 - (c1 & 63));
    if (w0 == w1) return (~row[w0] & head & tail) == 0;
    if ((~row[w0] & head) != 0) return false;
    for (int w = w0 + 1; w < w1; ++w) {
      if (row[w] != ~uint64_t{0}) return false;
    }
    return (~row[w1] & tail) == 0;
  }

  uint64_t* words_;
  int width_;
  int height_;
  bool packed_;
  int stride_words_;
  // Packed layout: bit 0 of every row (bit y*width_ for each y).
  uint64_t row_starts_ = 0;
};

// Dense bitset over a pixel grid, in MaskView's layout. The fast backend of
// the hardware tests: rasterizing each polygon into a mask and intersecting
// masks is decision-equivalent to the faithful color/accumulation-buffer
// pipeline (asserted by tests and the backend ablation bench).
class PixelMask {
 public:
  PixelMask(int width, int height)
      : width_(width),
        height_(height),
        words_(MaskView::WordCount(width, height)) {
    HASJ_CHECK(width > 0 && height > 0);
  }

  int width() const { return width_; }
  int height() const { return height_; }
  const uint64_t* words() const { return words_.data(); }
  size_t word_count() const { return words_.size(); }

  // The mask's words as a view (valid until the mask moves).
  MaskView view() { return MaskView(words_.data(), width_, height_); }

  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  void Set(int x, int y) {
    const size_t bit = Index(x, y);
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }

  bool Test(int x, int y) const {
    const size_t bit = Index(x, y);
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }

  // True if any pixel is set in both masks. Masks must match in size (and
  // therefore in layout, so the word-wise AND is pixel-wise).
  bool IntersectsAny(const PixelMask& other) const {
    HASJ_CHECK(width_ == other.width_ && height_ == other.height_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  int CountSet() const {
    int n = 0;
    for (uint64_t w : words_) n += __builtin_popcountll(w);
    return n;
  }

 private:
  // Bit index of pixel (x, y) within words_. Both layouts keep every
  // addressable bit inside the vector, and the row-aligned layout never
  // sets the pad bits past `width` of a row's last word.
  size_t Index(int x, int y) const {
    HASJ_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
    if (static_cast<int64_t>(width_) * height_ <= 64) {
      return static_cast<size_t>(y) * static_cast<size_t>(width_) +
             static_cast<size_t>(x);
    }
    const size_t stride = static_cast<size_t>(width_ + 63) / 64;
    return (static_cast<size_t>(y) * stride + (static_cast<size_t>(x) >> 6)) *
               64 +
           (static_cast<size_t>(x) & 63);
  }

  int width_;
  int height_;
  std::vector<uint64_t> words_;
};

}  // namespace hasj::glsim

#endif  // HASJ_GLSIM_PIXEL_MASK_H_
