#ifndef HASJ_GLSIM_PIXEL_MASK_H_
#define HASJ_GLSIM_PIXEL_MASK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "glsim/rowspan.h"

namespace hasj::glsim {

// Dense bitset over a pixel grid, in the two row-span kernel layouts
// (rowspan.h):
//  * width*height <= 64 ("packed"): the whole grid is one word, pixel
//    (x, y) = bit y*width + x — bit-for-bit the historical flat layout, so
//    the paper's 8x8 per-pair window stays a single-word mask.
//  * otherwise row-aligned: pixel (x, y) = bit x&63 of word
//    y*stride_words + (x>>6). Costs up to one partial word per row over
//    the flat layout but makes every row word-addressable, which is what
//    the SIMD fill/probe kernels need.
// The fast backend of the hardware tests: rasterizing each polygon into a
// mask and intersecting masks is decision-equivalent to the faithful
// color/accumulation-buffer pipeline (asserted by tests and the backend
// ablation bench).
class PixelMask {
 public:
  PixelMask(int width, int height)
      : width_(width),
        height_(height),
        packed_(static_cast<int64_t>(width) * height <= 64),
        stride_words_(packed_ ? 1 : (width + 63) / 64),
        words_(packed_ ? 1
                       : static_cast<size_t>(stride_words_) *
                             static_cast<size_t>(height)) {
    HASJ_CHECK(width > 0 && height > 0);
    if (packed_) {
      for (int y = 0; y < height; ++y) {
        row_starts_ |= uint64_t{1} << (y * width);
      }
    }
  }

  int width() const { return width_; }
  int height() const { return height_; }
  const uint64_t* words() const { return words_.data(); }
  size_t word_count() const { return words_.size(); }

  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  void Set(int x, int y) {
    const size_t bit = Index(x, y);
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }

  bool Test(int x, int y) const {
    const size_t bit = Index(x, y);
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }

  // Applies a primitive's row-span buffer through the given kernel engine
  // (rowspan.h) — the hot path of the bitmask hardware step; Set is the
  // per-pixel reference the differential tests compare against.
  FillResult FillSpans(const RowSpanEngine& engine, RowSpanBuffer* spans) {
    if (packed_) return engine.FillPacked(spans, width_, words_.data());
    return engine.FillRows(spans, width_, stride_words_, words_.data());
  }
  ProbeResult ProbeSpans(const RowSpanEngine& engine,
                         RowSpanBuffer* spans) const {
    if (packed_) return engine.ProbePacked(spans, width_, words_.data());
    return engine.ProbeRows(spans, width_, stride_words_, words_.data());
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
    if (packed_) {
      return static_cast<size_t>(y) * static_cast<size_t>(width_) +
             static_cast<size_t>(x);
    }
    return (static_cast<size_t>(y) * static_cast<size_t>(stride_words_) +
            (static_cast<size_t>(x) >> 6)) *
               64 +
           (static_cast<size_t>(x) & 63);
  }

  // Packed layout: the box's bits, its column mask copied into every row
  // by one multiply (no carries: each copy fits its row's width bits) and
  // cut to rows y0..y1.
  uint64_t PackedBoxBits(const PixelBox& box) const {
    const uint64_t cols = RowMask(box.x0, box.x1) * row_starts_;
    return cols & RowMask(box.y0 * width_, (box.y1 + 1) * width_ - 1);
  }

  // Row-aligned layout: the words of row y.
  const uint64_t* RowWords(int y) const {
    return words_.data() + static_cast<size_t>(y) * stride_words_;
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

  int width_;
  int height_;
  bool packed_;
  int stride_words_;
  std::vector<uint64_t> words_;
  // Packed layout: bit 0 of every row (bit y*width_ for each y).
  uint64_t row_starts_ = 0;
};

}  // namespace hasj::glsim

#endif  // HASJ_GLSIM_PIXEL_MASK_H_
