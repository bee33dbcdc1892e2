// AVX2 row-span kernels. The only TU in the tree (besides common/simd.h)
// allowed to touch raw intrinsics — enforced by scripts/lint_hasj.py rule
// simd-intrinsics. Compiled with -mavx2 -ffp-contract=off (see
// glsim/CMakeLists.txt): the contract-off flag keeps the SnapSpanToCols
// tolerance arithmetic bit-identical to the scalar backend (GCC would
// otherwise fuse _mm256_mul_pd + _mm256_add_pd into an FMA under
// -march=native, changing the rounding of the tolerance and thus,
// potentially, a snapped column on a knife-edge span).
//
// Bit-identity argument (DESIGN.md §14), per quad of 4 rows:
//  * Emptiness is decided on the ORIGINAL xlo/xhi with _CMP_NGT_UQ —
//    exactly the scalar `!(xlo > xhi)`, including unordered operands: a
//    NaN extent is NON-empty for both backends and snaps to column 0
//    through the PixelFromCoord NaN branch below. The ±inf-initialized
//    untouched rows (+inf > -inf) are empty for both.
//  * ceil/floor/abs/mul/add are IEEE-exact and identical to the scalar
//    sequence (no contraction, same rounding mode).
//  * PixelFromCoord's branches map to max/min: maxpd/minpd return their
//    SECOND operand when an operand is NaN, so max(v, 0) sends NaN to 0
//    exactly like the scalar `!(v >= lo)` branch, and min(·, vw-1) sends
//    +inf to vw-1. The truncating convert then only ever sees values in
//    [0, vw-1], matching the scalar static_cast.
//  * For a non-empty span, c0 <= c1 (an integer a < xhi+tol implies
//    a <= floor(xhi+tol)), so 63-(c1-c0) and c0 are valid shift counts;
//    garbage lanes are zeroed both by shift counts >= 64 (sllv/srlv yield
//    0, unlike scalar shifts) and by the AND with the validity mask.

#include <cstdint>

#include "glsim/rowspan.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hasj::glsim::rowspan_internal {

namespace {

struct Quad {
  __m256i valid;  // all-ones per non-empty row lane
  __m256i span;   // RowMask(c0, c1) per lane; 0 in empty lanes
};

// Snaps rows r..r+3 (xlo/xhi pointers at row r) to per-lane span masks.
inline Quad SnapQuad(const double* xlo, const double* xhi, int vw) {
  const __m256d lo = _mm256_loadu_pd(xlo);
  const __m256d hi = _mm256_loadu_pd(xhi);
  const __m256d nonempty = _mm256_cmp_pd(lo, hi, _CMP_NGT_UQ);
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d tol = _mm256_add_pd(
      _mm256_mul_pd(_mm256_set1_pd(1e-12),
                    _mm256_add_pd(_mm256_and_pd(lo, absmask),
                                  _mm256_and_pd(hi, absmask))),
      _mm256_set1_pd(1e-300));
  const __m256d a = _mm256_sub_pd(_mm256_ceil_pd(_mm256_sub_pd(lo, tol)),
                                  _mm256_set1_pd(1.0));
  const __m256d b = _mm256_floor_pd(_mm256_add_pd(hi, tol));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d top = _mm256_set1_pd(static_cast<double>(vw - 1));
  const __m256d ac = _mm256_min_pd(_mm256_max_pd(a, zero), top);
  const __m256d bc = _mm256_min_pd(_mm256_max_pd(b, zero), top);
  const __m256i c0 = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(ac));
  const __m256i c1 = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(bc));
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i diff = _mm256_sub_epi64(c1, c0);
  const __m256i span = _mm256_sllv_epi64(
      _mm256_srlv_epi64(ones, _mm256_sub_epi64(_mm256_set1_epi64x(63), diff)),
      c0);
  Quad q;
  q.valid = _mm256_castpd_si256(nonempty);
  q.span = _mm256_and_si256(span, q.valid);
  return q;
}

inline int ValidMask(const Quad& q) {
  return _mm256_movemask_pd(_mm256_castsi256_pd(q.valid));
}

// Lanes whose value is nonzero, as a 4-bit mask.
inline int NonzeroMask(__m256i v) {
  const __m256i iszero = _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
  return (~_mm256_movemask_pd(_mm256_castsi256_pd(iszero))) & 0xf;
}

inline uint64_t OrReduce(__m256i v) {
  const __m128i halves = _mm_or_si128(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(halves)) |
         static_cast<uint64_t>(_mm_extract_epi64(halves, 1));
}

// Bit positions of rows r..r+3 in the packed word: r*vw plus the hoisted
// per-lane offsets {0, vw, 2vw, 3vw}.
inline __m256i LaneOffsets(int vw) {
  return _mm256_setr_epi64x(0, vw, 2 * static_cast<int64_t>(vw),
                            3 * static_cast<int64_t>(vw));
}

inline __m256i RowShifts(int r, int vw, __m256i lane_off) {
  return _mm256_add_epi64(_mm256_set1_epi64x(static_cast<int64_t>(r) * vw),
                          lane_off);
}

FillResult FillPackedAvx2(const RowSpanBuffer& spans, int vw,
                          uint64_t* word) {
  FillResult out;
  const uint64_t initial = *word;
  uint64_t acc = 0;
  int r = spans.row_min;
  if (r + 3 <= spans.row_max) {
    const __m256i lane_off = LaneOffsets(vw);
    __m256i vacc = _mm256_setzero_si256();
    for (; r + 3 <= spans.row_max; r += 4) {
      const Quad q = SnapQuad(&spans.xlo[r], &spans.xhi[r], vw);
      out.spans += __builtin_popcount(static_cast<unsigned>(ValidMask(q)));
      // Distinct rows occupy disjoint bit ranges of the packed word, so
      // the OR accumulator (reduced once after the loop) sets exactly the
      // union the scalar loop sets.
      vacc = _mm256_or_si256(
          vacc, _mm256_sllv_epi64(q.span, RowShifts(r, vw, lane_off)));
    }
    acc = OrReduce(vacc);
  }
  for (; r <= spans.row_max; ++r) {
    int c0, c1;
    if (!SnapSpanToCols(spans.xlo[r], spans.xhi[r], vw, &c0, &c1)) continue;
    ++out.spans;
    acc |= RowMask(c0, c1) << (r * vw);
  }
  *word = initial | acc;
  out.newly_set = __builtin_popcountll(acc & ~initial);
  return out;
}

ProbeResult ProbePackedAvx2(const RowSpanBuffer& spans, int vw,
                            const uint64_t* word) {
  ProbeResult out;
  const __m256i grid = _mm256_set1_epi64x(static_cast<int64_t>(*word));
  const __m256i lane_off = LaneOffsets(vw);
  int r = spans.row_min;
  for (; r + 3 <= spans.row_max; r += 4) {
    const Quad q = SnapQuad(&spans.xlo[r], &spans.xhi[r], vw);
    const int m = ValidMask(q);
    const __m256i overlap = _mm256_and_si256(
        _mm256_srlv_epi64(grid, RowShifts(r, vw, lane_off)), q.span);
    const int h = NonzeroMask(overlap) & m;
    if (h != 0) {
      // First hitting lane; spans counts the non-empty lanes up to and
      // including it — the scalar loop's early-stop point exactly.
      const int k = __builtin_ctz(static_cast<unsigned>(h));
      out.spans += __builtin_popcount(
          static_cast<unsigned>(m) & ((2u << k) - 1));
      out.hit_row = r + k;
      return out;
    }
    out.spans += __builtin_popcount(static_cast<unsigned>(m));
  }
  for (; r <= spans.row_max; ++r) {
    int c0, c1;
    if (!SnapSpanToCols(spans.xlo[r], spans.xhi[r], vw, &c0, &c1)) continue;
    ++out.spans;
    if (((*word >> (r * vw)) & RowMask(c0, c1)) != 0) {
      out.hit_row = r;
      return out;
    }
  }
  return out;
}

FillResult FillRowsAvx2(const RowSpanBuffer& spans, int vw, int stride_words,
                        uint64_t* words) {
  FillResult out;
  int r = spans.row_min;
  if (stride_words == 1) {
    // Word-per-row masks: four rows are four consecutive words — one
    // unaligned load/OR/store per quad.
    for (; r + 3 <= spans.row_max; r += 4) {
      const Quad q = SnapQuad(&spans.xlo[r], &spans.xhi[r], vw);
      out.spans += __builtin_popcount(static_cast<unsigned>(ValidMask(q)));
      __m256i* p = reinterpret_cast<__m256i*>(words + r);
      const __m256i old = _mm256_loadu_si256(p);
      _mm256_storeu_si256(p, _mm256_or_si256(old, q.span));
      alignas(32) uint64_t fresh[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(fresh),
                         _mm256_andnot_si256(old, q.span));
      out.newly_set += __builtin_popcountll(fresh[0]) +
                       __builtin_popcountll(fresh[1]) +
                       __builtin_popcountll(fresh[2]) +
                       __builtin_popcountll(fresh[3]);
    }
  }
  // Tail rows of the stride-1 layout, and the whole multi-word-row layout
  // (wide PixelMask): the shared scalar word walk. Snapping dominates the
  // narrow-mask cost, not the word walk, and the wide layout is the cold
  // 1024-px paranoid-render path.
  for (; r <= spans.row_max; ++r) {
    int c0, c1;
    if (!SnapSpanToCols(spans.xlo[r], spans.xhi[r], vw, &c0, &c1)) continue;
    ++out.spans;
    out.newly_set += FillRowWords(words + static_cast<size_t>(r) * stride_words,
                                  c0, c1);
  }
  return out;
}

ProbeResult ProbeRowsAvx2(const RowSpanBuffer& spans, int vw,
                          int stride_words, const uint64_t* words) {
  ProbeResult out;
  int r = spans.row_min;
  if (stride_words == 1) {
    for (; r + 3 <= spans.row_max; r += 4) {
      const Quad q = SnapQuad(&spans.xlo[r], &spans.xhi[r], vw);
      const int m = ValidMask(q);
      const __m256i old =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + r));
      const int h = NonzeroMask(_mm256_and_si256(old, q.span)) & m;
      if (h != 0) {
        const int k = __builtin_ctz(static_cast<unsigned>(h));
        out.spans += __builtin_popcount(
            static_cast<unsigned>(m) & ((2u << k) - 1));
        out.hit_row = r + k;
        return out;
      }
      out.spans += __builtin_popcount(static_cast<unsigned>(m));
    }
  }
  for (; r <= spans.row_max; ++r) {
    int c0, c1;
    if (!SnapSpanToCols(spans.xlo[r], spans.xhi[r], vw, &c0, &c1)) continue;
    ++out.spans;
    if (ProbeRowWords(words + static_cast<size_t>(r) * stride_words, c0, c1)) {
      out.hit_row = r;
      return out;
    }
  }
  return out;
}

const RowSpanKernels kAvx2RowSpanKernels = {
    FillPackedAvx2,
    ProbePackedAvx2,
    FillRowsAvx2,
    ProbeRowsAvx2,
};

}  // namespace

const RowSpanKernels* GetAvx2RowSpanKernels() { return &kAvx2RowSpanKernels; }

}  // namespace hasj::glsim::rowspan_internal

#else  // !__AVX2__

namespace hasj::glsim::rowspan_internal {

// Built without -mavx2 (non-x86 host or a baseline HASJ_ARCH_FLAGS): no
// AVX2 backend; RowSpanEngine falls back to scalar and Available(kAvx2)
// reports false.
const RowSpanKernels* GetAvx2RowSpanKernels() { return nullptr; }

}  // namespace hasj::glsim::rowspan_internal

#endif  // __AVX2__
