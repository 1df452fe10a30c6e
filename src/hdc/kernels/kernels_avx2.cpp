// x86-64 AVX2 backend. This TU (and only this TU) is compiled with
// -mavx2 -mpopcnt; dispatch.cpp selects it at runtime via cpuid, so the rest
// of the binary stays runnable on any x86-64.
//
// Bit-identity with the scalar reference:
//  * integer kernels (popcounts, bit-plane dots, sign packing) are exact —
//    there is only one right answer;
//  * float kernels vectorize across OUTPUT rows (one row per lane), so each
//    output element accumulates in the same ascending-j order as the scalar
//    loop, with separate _mm256_mul_ps / _mm256_add_ps roundings (-mfma is
//    deliberately not enabled and -ffp-contract=off keeps the compiler from
//    fusing them).
#include "kernels.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && !defined(EDGEHD_DISABLE_SIMD)

#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace edgehd::hdc::kernels {

namespace {

/// Per-64-bit-lane popcounts of a 256-bit vector (Mula's nibble-LUT +
/// _mm256_sad_epu8 algorithm).
inline __m256i popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline std::uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

std::uint64_t popcount_words_avx2(const std::uint64_t* w, std::size_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, popcount256(v));
  }
  std::uint64_t total = hsum_epi64(acc);
  for (; i < words; ++i) total += static_cast<std::uint64_t>(_mm_popcnt_u64(w[i]));
  return total;
}

std::uint64_t xor_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(va, vb)));
  }
  std::uint64_t total = hsum_epi64(acc);
  for (; i < words; ++i) {
    total += static_cast<std::uint64_t>(_mm_popcnt_u64(a[i] ^ b[i]));
  }
  return total;
}

std::int64_t planes_dot_avx2(const std::uint64_t* pos, const std::uint64_t* neg,
                             const std::uint64_t* planes, std::size_t words,
                             std::size_t nplanes) {
  std::int64_t dot = 0;
  for (std::size_t b = 0; b < nplanes; ++b) {
    const std::uint64_t* plane = planes + b * words;
    __m256i acc_p = _mm256_setzero_si256();
    __m256i acc_n = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= words; i += 4) {
      const __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + i));
      const __m256i p =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + i));
      const __m256i n =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(neg + i));
      acc_p = _mm256_add_epi64(acc_p, popcount256(_mm256_and_si256(p, c)));
      acc_n = _mm256_add_epi64(acc_n, popcount256(_mm256_and_si256(n, c)));
    }
    std::int64_t bal = static_cast<std::int64_t>(hsum_epi64(acc_p)) -
                       static_cast<std::int64_t>(hsum_epi64(acc_n));
    for (; i < words; ++i) {
      bal += _mm_popcnt_u64(pos[i] & plane[i]);
      bal -= _mm_popcnt_u64(neg[i] & plane[i]);
    }
    const std::int64_t weight = std::int64_t{1} << b;
    dot += b + 1 == nplanes ? -weight * bal : weight * bal;
  }
  return dot;
}

void pack_signs_avx2(const std::int8_t* v, std::size_t n, std::uint64_t* pos,
                     std::uint64_t* neg) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t w = 0;
  // 64 components per iteration: two 32-byte compares + movemask each.
  for (; (w + 1) * 64 <= n; ++w) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + w * 64));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + w * 64 + 32));
    const auto p_lo = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi8(lo, zero)));
    const auto p_hi = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi8(hi, zero)));
    pos[w] = static_cast<std::uint64_t>(p_lo) |
             (static_cast<std::uint64_t>(p_hi) << 32);
    if (neg != nullptr) {
      const auto n_lo = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpgt_epi8(zero, lo)));
      const auto n_hi = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpgt_epi8(zero, hi)));
      neg[w] = static_cast<std::uint64_t>(n_lo) |
               (static_cast<std::uint64_t>(n_hi) << 32);
    }
  }
  if (w * 64 < n) {  // tail word, bit by bit
    std::uint64_t p = 0;
    std::uint64_t m = 0;
    for (std::size_t i = w * 64; i < n; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if (v[i] > 0) p |= bit;
      if (v[i] < 0) m |= bit;
    }
    pos[w] = p;
    if (neg != nullptr) neg[w] = m;
  }
}

void gemv_f32_avx2(const float* blocked, std::size_t rows, std::size_t cols,
                   const float* x, float* out) {
  constexpr std::size_t kLane = BlockedMatrixF32::kLane;
  const std::size_t full = rows / kLane;
  for (std::size_t blk = 0; blk < full; ++blk) {
    const float* w = blocked + blk * cols * kLane;
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t j = 0; j < cols; ++j) {
      const __m256 wv = _mm256_loadu_ps(w + j * kLane);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, _mm256_set1_ps(x[j])));
    }
    _mm256_storeu_ps(out + blk * kLane, acc);
  }
  for (std::size_t r = full * kLane; r < rows; ++r) {  // tail rows, scalar
    const float* w = blocked + (r / kLane) * cols * kLane + (r % kLane);
    float acc = 0.0F;
    for (std::size_t j = 0; j < cols; ++j) acc += w[j * kLane] * x[j];
    out[r] = acc;
  }
}

void gemm_f32_avx2(const float* blocked, std::size_t rows, std::size_t cols,
                   const float* const* xs, float* const* outs,
                   std::size_t count) {
  constexpr std::size_t kLane = BlockedMatrixF32::kLane;
  const std::size_t full = rows / kLane;
  std::size_t s = 0;
  // Blocks of 4 samples share each loaded weight vector (4x fewer W loads);
  // per-sample arithmetic is untouched.
  for (; s + 4 <= count; s += 4) {
    const float* x0 = xs[s];
    const float* x1 = xs[s + 1];
    const float* x2 = xs[s + 2];
    const float* x3 = xs[s + 3];
    for (std::size_t blk = 0; blk < full; ++blk) {
      const float* w = blocked + blk * cols * kLane;
      __m256 a0 = _mm256_setzero_ps();
      __m256 a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps();
      __m256 a3 = _mm256_setzero_ps();
      for (std::size_t j = 0; j < cols; ++j) {
        const __m256 wv = _mm256_loadu_ps(w + j * kLane);
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(wv, _mm256_set1_ps(x0[j])));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(wv, _mm256_set1_ps(x1[j])));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(wv, _mm256_set1_ps(x2[j])));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(wv, _mm256_set1_ps(x3[j])));
      }
      _mm256_storeu_ps(outs[s] + blk * kLane, a0);
      _mm256_storeu_ps(outs[s + 1] + blk * kLane, a1);
      _mm256_storeu_ps(outs[s + 2] + blk * kLane, a2);
      _mm256_storeu_ps(outs[s + 3] + blk * kLane, a3);
    }
    for (std::size_t r = full * kLane; r < rows; ++r) {
      const float* w = blocked + (r / kLane) * cols * kLane + (r % kLane);
      float b0 = 0.0F, b1 = 0.0F, b2 = 0.0F, b3 = 0.0F;
      for (std::size_t j = 0; j < cols; ++j) {
        const float wj = w[j * kLane];
        b0 += wj * x0[j];
        b1 += wj * x1[j];
        b2 += wj * x2[j];
        b3 += wj * x3[j];
      }
      outs[s][r] = b0;
      outs[s + 1][r] = b1;
      outs[s + 2][r] = b2;
      outs[s + 3][r] = b3;
    }
  }
  for (; s < count; ++s) gemv_f32_avx2(blocked, rows, cols, xs[s], outs[s]);
}

void sparse_gemv_f32_avx2(const float* blocked, const std::uint32_t* starts,
                          std::size_t rows, std::size_t window,
                          const float* xx, float* out) {
  constexpr std::size_t kLane = BlockedMatrixF32::kLane;
  const std::size_t full = rows / kLane;
  for (std::size_t blk = 0; blk < full; ++blk) {
    const float* w = blocked + blk * window * kLane;
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(starts + blk * kLane));
    __m256 acc = _mm256_setzero_ps();
    const __m256i one = _mm256_set1_epi32(1);
    for (std::size_t j = 0; j < window; ++j) {
      const __m256 f = _mm256_i32gather_ps(xx, idx, 4);
      const __m256 wv = _mm256_loadu_ps(w + j * kLane);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, f));
      idx = _mm256_add_epi32(idx, one);
    }
    _mm256_storeu_ps(out + blk * kLane, acc);
  }
  for (std::size_t r = full * kLane; r < rows; ++r) {
    const float* w = blocked + (r / kLane) * window * kLane + (r % kLane);
    const float* f = xx + starts[r];
    float acc = 0.0F;
    for (std::size_t j = 0; j < window; ++j) acc += w[j * kLane] * f[j];
    out[r] = acc;
  }
}

/// One row of the ternary projection over tile columns [s, s + 4R): R
/// registers of four int64 lanes, each tap sign-extending four int32 inputs
/// straight from memory (vpmovsxdq).
template <std::size_t R>
inline void ternary_row_block(const std::uint32_t* tp, std::size_t np,
                              std::size_t nnz, const std::int32_t* tile,
                              std::size_t q, std::size_t s, std::int64_t* o) {
  __m256i acc[R];
  for (std::size_t k = 0; k < R; ++k) acc[k] = _mm256_setzero_si256();
  for (std::size_t t = 0; t < np; ++t) {
    const std::int32_t* x = tile + static_cast<std::size_t>(tp[t]) * q + s;
    for (std::size_t k = 0; k < R; ++k) {
      acc[k] = _mm256_add_epi64(
          acc[k], _mm256_cvtepi32_epi64(_mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(x + 4 * k))));
    }
  }
  for (std::size_t t = np; t < nnz; ++t) {
    const std::int32_t* x = tile + static_cast<std::size_t>(tp[t]) * q + s;
    for (std::size_t k = 0; k < R; ++k) {
      acc[k] = _mm256_sub_epi64(
          acc[k], _mm256_cvtepi32_epi64(_mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(x + 4 * k))));
    }
  }
  for (std::size_t k = 0; k < R; ++k) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + s + 4 * k), acc[k]);
  }
}

void ternary_project_avx2(const std::uint32_t* taps, const std::uint32_t* npos,
                          std::size_t nnz, std::size_t rows,
                          const std::int32_t* tile, std::size_t q,
                          std::int64_t* out) {
  // Narrow tiles gain nothing from lanes; a single query's gathers measured
  // slower with vpgatherdd than the scalar loop.
  if (q < 4) {
    detail::ternary_project_scalar(taps, npos, nnz, rows, tile, q, out);
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t* tp = taps + r * nnz;
    const std::size_t np = npos[r];
    std::int64_t* o = out + r * q;
    std::size_t s = 0;
    for (; s + 32 <= q; s += 32) ternary_row_block<8>(tp, np, nnz, tile, q, s, o);
    if (s + 16 <= q) {
      ternary_row_block<4>(tp, np, nnz, tile, q, s, o);
      s += 16;
    }
    for (; s + 4 <= q; s += 4) ternary_row_block<1>(tp, np, nnz, tile, q, s, o);
    for (; s < q; ++s) {  // tail columns
      std::int64_t acc = 0;
      for (std::size_t t = 0; t < np; ++t) {
        acc += tile[static_cast<std::size_t>(tp[t]) * q + s];
      }
      for (std::size_t t = np; t < nnz; ++t) {
        acc -= tile[static_cast<std::size_t>(tp[t]) * q + s];
      }
      o[s] = acc;
    }
  }
}

const KernelTable kAvx2Table = {
    "avx2",          popcount_words_avx2, xor_popcount_avx2,
    planes_dot_avx2, pack_signs_avx2,     gemv_f32_avx2,
    gemm_f32_avx2,   sparse_gemv_f32_avx2, ternary_project_avx2,
};

}  // namespace

const KernelTable* avx2_table() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Table : nullptr;
}

}  // namespace edgehd::hdc::kernels

#else  // AVX2 not compiled in

namespace edgehd::hdc::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace edgehd::hdc::kernels

#endif
