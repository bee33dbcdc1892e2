#ifndef HASJ_GLSIM_ATLAS_H_
#define HASJ_GLSIM_ATLAS_H_

#include <cstdint>
#include <vector>

#include "common/fault.h"
#include "common/macros.h"
#include "common/status.h"
#include "glsim/pixel_mask.h"

namespace hasj::glsim {

// Tile-atlas framebuffer for batched hardware testing (DESIGN.md §9).
//
// One Atlas models a single large off-screen framebuffer (e.g. 1024x1024)
// partitioned into `capacity` square tiles of tile_res x tile_res pixels,
// one tile per candidate pair. Rendering a pair is scissored to its tile by
// construction: the rasterizer clips to a tile_res x tile_res viewport and
// the tile's pixels are stored contiguously, so no draw can spill into a
// neighbor (the tile-isolation argument of DESIGN.md §9). Clearing and
// scanning touch the whole buffer once per batch instead of once per pair —
// the amortization the paper's per-pair windows cannot get.
//
// Storage is one bit per pixel, tile-major:
//  * tile_res^2 <= 64 ("packed"): a whole tile is ONE machine word; row y
//    occupies bits [y*tile_res, y*tile_res + tile_res). An 8x8 tile — the
//    paper's recommended window — is exactly a uint64_t, so a row-span
//    write is a single OR and a shared-pixel probe a single AND.
//  * tile_res <= 64 otherwise: one word per row, tile_res words per tile.
// Both are the layout of a tile_res x tile_res PixelMask, so tile(t) is a
// MaskView and the batch tester fills and probes tiles through the same
// hardware-step code as the per-pair testers' masks.
class Atlas {
 public:
  // Largest tile resolution the word-per-row layout supports.
  static constexpr int kMaxTileRes = 64;

  Atlas(int tile_res, int capacity);

  int tile_res() const { return tile_res_; }
  int capacity() const { return capacity_; }
  bool packed() const { return packed_; }
  int words_per_tile() const { return words_per_tile_; }

  // Conceptual framebuffer dimensions (tiles laid out row-major in a
  // near-square grid), for reporting and the golden tests.
  int width() const { return tiles_per_row_ * tile_res_; }
  int height() const {
    return ((capacity_ + tiles_per_row_ - 1) / tiles_per_row_) * tile_res_;
  }

  // One pass over the whole framebuffer — the per-batch clear.
  void Clear();

  // Fault hook, null-pointer-gated like RenderContext::set_faults: with no
  // injector attached the atlas cannot fail and each Begin* below is one
  // pointer test. Not owned.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

  // Failable phases of a batch (DESIGN.md §11). TryClear models the
  // per-batch buffer (re)allocation + clear (kFramebufferAlloc): on a fault
  // nothing is cleared and the batch must not use the atlas. BeginFill and
  // BeginScan gate the fill pass (kBatchFill) and the probe pass
  // (kScanReadback). A batch whose Begin* faults is retried pair-by-pair
  // through the per-pair testers — never failed outright.
  [[nodiscard]] Status TryClear();
  [[nodiscard]] Status BeginFill();
  [[nodiscard]] Status BeginScan();

  uint64_t* tile_words(int tile) {
    HASJ_DCHECK(tile >= 0 && tile < capacity_);
    return words_.data() + static_cast<size_t>(tile) * words_per_tile_;
  }
  const uint64_t* tile_words(int tile) const {
    HASJ_DCHECK(tile >= 0 && tile < capacity_);
    return words_.data() + static_cast<size_t>(tile) * words_per_tile_;
  }

  // The tile as a tile_res x tile_res mask (DESIGN.md §9, §14).
  MaskView tile(int tile) {
    return MaskView(tile_words(tile), tile_res_, tile_res_);
  }

  // Pixel test in tile-local coordinates (debug/test accessor; the hot
  // paths work on whole words).
  bool Test(int tile, int x, int y) const;
  int CountSet(int tile) const;

  // Row emitter writing row spans into one tile; plugs into
  // RasterizeLineAARowSpans / RasterizeWidePointRowSpans. Row/column
  // ranges arrive pre-clipped to [0, tile_res). Kept as the reference
  // emitter of the golden tests; the batch tester goes through tile().
  class RowFiller {
   public:
    RowFiller(Atlas* atlas, int tile)
        : words_(atlas->tile_words(tile)),
          tile_res_(atlas->tile_res_),
          packed_(atlas->packed_) {}

    void operator()(int c0, int c1, int y) {
      const uint64_t span = RowMask(c0, c1);
      if (packed_) {
        words_[0] |= span << (y * tile_res_);
      } else {
        words_[y] |= span;
      }
    }

   private:
    uint64_t* words_;
    int tile_res_;
    bool packed_;
  };

  // Row emitter probing one tile of a (previously filled) atlas for a
  // doubly-colored pixel; stops the primitive at the first hit (the fused
  // scan of the batch tester). The probed spans are exactly the pixels the
  // second chain would color, so a hit == "some pixel colored by both".
  class RowProber {
   public:
    RowProber(const Atlas& atlas, int tile)
        : words_(atlas.tile_words(tile)),
          tile_res_(atlas.tile_res_),
          packed_(atlas.packed_) {}

    bool operator()(int c0, int c1, int y) {
      const uint64_t span = RowMask(c0, c1);
      const uint64_t overlap = packed_
                                   ? (words_[0] >> (y * tile_res_)) & span
                                   : words_[y] & span;
      hit_ = hit_ || overlap != 0;
      return hit_;
    }

    bool hit() const { return hit_; }

   private:
    const uint64_t* words_;
    int tile_res_;
    bool packed_;
    bool hit_ = false;
  };

 private:
  int tile_res_;
  int capacity_;
  bool packed_;
  int words_per_tile_;
  int tiles_per_row_;
  FaultInjector* faults_ = nullptr;  // null = cannot fail
  std::vector<uint64_t> words_;
};

}  // namespace hasj::glsim

#endif  // HASJ_GLSIM_ATLAS_H_
