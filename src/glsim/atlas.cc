#include "glsim/atlas.h"

#include <algorithm>
#include <cmath>

#include "glsim/pixel_snap.h"

namespace hasj::glsim {

Atlas::Atlas(int tile_res, int capacity)
    : tile_res_(tile_res),
      capacity_(capacity),
      packed_(tile_res * tile_res <= 64),
      words_per_tile_(packed_ ? 1 : tile_res),
      tiles_per_row_(std::max(
          1, PixelFromCoord(std::ceil(std::sqrt(static_cast<double>(capacity))),
                            1, capacity))),
      words_(static_cast<size_t>(capacity) * words_per_tile_, 0) {
  HASJ_CHECK(tile_res >= 1 && tile_res <= kMaxTileRes);
  HASJ_CHECK(capacity >= 1);
}

void Atlas::Clear() { std::fill(words_.begin(), words_.end(), 0); }

Status Atlas::TryClear() {
  if (faults_ != nullptr) {
    if (Status s = faults_->Check(FaultSite::kFramebufferAlloc); !s.ok()) {
      return s;
    }
  }
  Clear();
  return Status::Ok();
}

Status Atlas::BeginFill() {
  if (faults_ == nullptr) return Status::Ok();
  return faults_->Check(FaultSite::kBatchFill);
}

Status Atlas::BeginScan() {
  if (faults_ == nullptr) return Status::Ok();
  return faults_->Check(FaultSite::kScanReadback);
}

bool Atlas::Test(int tile, int x, int y) const {
  HASJ_DCHECK(x >= 0 && x < tile_res_ && y >= 0 && y < tile_res_);
  const uint64_t* words = tile_words(tile);
  if (packed_) return (words[0] >> (y * tile_res_ + x)) & 1;
  return (words[y] >> x) & 1;
}

int Atlas::CountSet(int tile) const {
  const uint64_t* words = tile_words(tile);
  int n = 0;
  for (int w = 0; w < words_per_tile_; ++w) {
    n += __builtin_popcountll(words[w]);
  }
  return n;
}

}  // namespace hasj::glsim
