// aarch64 NEON backend. NEON is baseline on aarch64, so no extra compile
// flags or runtime probe are needed — the table is available whenever the
// build targets aarch64 (and EDGEHD_DISABLE_SIMD is off).
//
// Same bit-identity rules as the AVX2 TU: integer kernels are exact; float
// kernels vectorize across output rows (4 per 128-bit lane group) with
// separate vmulq/vaddq roundings and -ffp-contract=off, so no fused
// multiply-add sneaks in.
#include "kernels.hpp"

#if defined(__aarch64__) && !defined(EDGEHD_DISABLE_SIMD)

#include <arm_neon.h>

#include <bit>
#include <cstdint>

namespace edgehd::hdc::kernels {

namespace {

std::uint64_t popcount_words_neon(const std::uint64_t* w, std::size_t words) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= words; i += 2) {
    const uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(w + i));
    total += vaddvq_u8(vcntq_u8(v));
  }
  for (; i < words; ++i) total += static_cast<std::uint64_t>(std::popcount(w[i]));
  return total;
}

std::uint64_t xor_popcount_neon(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 2 <= words; i += 2) {
    const uint8x16_t va = vld1q_u8(reinterpret_cast<const std::uint8_t*>(a + i));
    const uint8x16_t vb = vld1q_u8(reinterpret_cast<const std::uint8_t*>(b + i));
    total += vaddvq_u8(vcntq_u8(veorq_u8(va, vb)));
  }
  for (; i < words; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

std::int64_t planes_dot_neon(const std::uint64_t* pos, const std::uint64_t* neg,
                             const std::uint64_t* planes, std::size_t words,
                             std::size_t nplanes) {
  std::int64_t dot = 0;
  for (std::size_t b = 0; b < nplanes; ++b) {
    const std::uint64_t* plane = planes + b * words;
    std::int64_t bal = 0;
    std::size_t i = 0;
    for (; i + 2 <= words; i += 2) {
      const uint8x16_t c =
          vld1q_u8(reinterpret_cast<const std::uint8_t*>(plane + i));
      const uint8x16_t p =
          vld1q_u8(reinterpret_cast<const std::uint8_t*>(pos + i));
      const uint8x16_t n =
          vld1q_u8(reinterpret_cast<const std::uint8_t*>(neg + i));
      bal += vaddvq_u8(vcntq_u8(vandq_u8(p, c)));
      bal -= vaddvq_u8(vcntq_u8(vandq_u8(n, c)));
    }
    for (; i < words; ++i) {
      bal += std::popcount(pos[i] & plane[i]);
      bal -= std::popcount(neg[i] & plane[i]);
    }
    const std::int64_t weight = std::int64_t{1} << b;
    dot += b + 1 == nplanes ? -weight * bal : weight * bal;
  }
  return dot;
}

void pack_signs_neon(const std::int8_t* v, std::size_t n, std::uint64_t* pos,
                     std::uint64_t* neg) {
  // Per-byte sign tests vectorize trivially; bit compaction is cheapest via
  // the scalar bit loop on NEON (no movemask equivalent), which is still
  // exact and fast enough — packing is O(D) against the O(D * B) dot scans.
  const std::size_t words = packed_words(n);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t p = 0;
    std::uint64_t m = 0;
    const std::size_t end = (w + 1) * 64 < n ? (w + 1) * 64 : n;
    for (std::size_t i = w * 64; i < end; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if (v[i] > 0) p |= bit;
      if (v[i] < 0) m |= bit;
    }
    pos[w] = p;
    if (neg != nullptr) neg[w] = m;
  }
}

void gemv_f32_neon(const float* blocked, std::size_t rows, std::size_t cols,
                   const float* x, float* out) {
  constexpr std::size_t kLane = BlockedMatrixF32::kLane;
  const std::size_t full = rows / kLane;
  for (std::size_t blk = 0; blk < full; ++blk) {
    const float* w = blocked + blk * cols * kLane;
    float32x4_t lo = vdupq_n_f32(0.0F);
    float32x4_t hi = vdupq_n_f32(0.0F);
    for (std::size_t j = 0; j < cols; ++j) {
      const float32x4_t xv = vdupq_n_f32(x[j]);
      lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(w + j * kLane), xv));
      hi = vaddq_f32(hi, vmulq_f32(vld1q_f32(w + j * kLane + 4), xv));
    }
    vst1q_f32(out + blk * kLane, lo);
    vst1q_f32(out + blk * kLane + 4, hi);
  }
  for (std::size_t r = full * kLane; r < rows; ++r) {
    const float* w = blocked + (r / kLane) * cols * kLane + (r % kLane);
    float acc = 0.0F;
    for (std::size_t j = 0; j < cols; ++j) acc += w[j * kLane] * x[j];
    out[r] = acc;
  }
}

void gemm_f32_neon(const float* blocked, std::size_t rows, std::size_t cols,
                   const float* const* xs, float* const* outs,
                   std::size_t count) {
  for (std::size_t s = 0; s < count; ++s) {
    gemv_f32_neon(blocked, rows, cols, xs[s], outs[s]);
  }
}

void sparse_gemv_f32_neon(const float* blocked, const std::uint32_t* starts,
                          std::size_t rows, std::size_t window,
                          const float* xx, float* out) {
  // No gather on NEON: rows run scalar over the blocked layout (sequential
  // j per row, same order as every other backend).
  constexpr std::size_t kLane = BlockedMatrixF32::kLane;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* w = blocked + (r / kLane) * window * kLane + (r % kLane);
    const float* f = xx + starts[r];
    float acc = 0.0F;
    for (std::size_t j = 0; j < window; ++j) acc += w[j * kLane] * f[j];
    out[r] = acc;
  }
}

const KernelTable kNeonTable = {
    "neon",          popcount_words_neon, xor_popcount_neon,
    planes_dot_neon, pack_signs_neon,     gemv_f32_neon,
    gemm_f32_neon,   sparse_gemv_f32_neon,
    // No NEON ternary projection yet: the scalar loop serves.
    detail::ternary_project_scalar,
};

}  // namespace

const KernelTable* neon_table() { return &kNeonTable; }

}  // namespace edgehd::hdc::kernels

#else  // not aarch64

namespace edgehd::hdc::kernels {
const KernelTable* neon_table() { return nullptr; }
}  // namespace edgehd::hdc::kernels

#endif
