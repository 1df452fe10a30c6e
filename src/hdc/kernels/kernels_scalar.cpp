// Portable scalar backend — the semantic ground truth every SIMD backend
// must match bit-for-bit. Compiled with -ffp-contract=off so the float
// accumulation order (ascending index, separate multiply and add roundings)
// is exactly what the table documents, on every architecture.
#include <bit>
#include <cstdint>

#include "kernels.hpp"

namespace edgehd::hdc::kernels {

namespace {

std::uint64_t popcount_words_scalar(const std::uint64_t* w, std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(w[i]));
  }
  return total;
}

std::uint64_t xor_popcount_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

std::int64_t planes_dot_scalar(const std::uint64_t* pos,
                               const std::uint64_t* neg,
                               const std::uint64_t* planes, std::size_t words,
                               std::size_t nplanes) {
  std::int64_t dot = 0;
  for (std::size_t b = 0; b < nplanes; ++b) {
    const std::uint64_t* plane = planes + b * words;
    std::int64_t bal = 0;  // popcount(pos & plane) - popcount(neg & plane)
    for (std::size_t i = 0; i < words; ++i) {
      bal += std::popcount(pos[i] & plane[i]);
      bal -= std::popcount(neg[i] & plane[i]);
    }
    const std::int64_t weight = std::int64_t{1} << b;
    dot += b + 1 == nplanes ? -weight * bal : weight * bal;
  }
  return dot;
}

void pack_signs_scalar(const std::int8_t* v, std::size_t n, std::uint64_t* pos,
                       std::uint64_t* neg) {
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

void gemv_f32_scalar(const float* blocked, std::size_t rows, std::size_t cols,
                     const float* x, float* out) {
  constexpr std::size_t kLane = BlockedMatrixF32::kLane;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* w = blocked + (r / kLane) * cols * kLane + (r % kLane);
    float acc = 0.0F;
    for (std::size_t j = 0; j < cols; ++j) acc += w[j * kLane] * x[j];
    out[r] = acc;
  }
}

void gemm_f32_scalar(const float* blocked, std::size_t rows, std::size_t cols,
                     const float* const* xs, float* const* outs,
                     std::size_t count) {
  for (std::size_t s = 0; s < count; ++s) {
    gemv_f32_scalar(blocked, rows, cols, xs[s], outs[s]);
  }
}

void sparse_gemv_f32_scalar(const float* blocked, const std::uint32_t* starts,
                            std::size_t rows, std::size_t window,
                            const float* xx, float* out) {
  constexpr std::size_t kLane = BlockedMatrixF32::kLane;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* w = blocked + (r / kLane) * window * kLane + (r % kLane);
    const float* f = xx + starts[r];
    float acc = 0.0F;
    for (std::size_t j = 0; j < window; ++j) acc += w[j * kLane] * f[j];
    out[r] = acc;
  }
}

}  // namespace

void detail::ternary_project_scalar(const std::uint32_t* taps,
                                    const std::uint32_t* npos, std::size_t nnz,
                                    std::size_t rows, const std::int32_t* tile,
                                    std::size_t q, std::int64_t* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t* tp = taps + r * nnz;
    const std::size_t np = npos[r];
    std::int64_t* o = out + r * q;
    if (q == 1) {  // one query: keep the sum in a register
      std::int64_t acc = 0;
      for (std::size_t t = 0; t < np; ++t) acc += tile[tp[t]];
      for (std::size_t t = np; t < nnz; ++t) acc -= tile[tp[t]];
      *o = acc;
      continue;
    }
    for (std::size_t s = 0; s < q; ++s) o[s] = 0;
    for (std::size_t t = 0; t < np; ++t) {
      const std::int32_t* x = tile + static_cast<std::size_t>(tp[t]) * q;
      for (std::size_t s = 0; s < q; ++s) o[s] += x[s];
    }
    for (std::size_t t = np; t < nnz; ++t) {
      const std::int32_t* x = tile + static_cast<std::size_t>(tp[t]) * q;
      for (std::size_t s = 0; s < q; ++s) o[s] -= x[s];
    }
  }
}

const KernelTable& scalar_table() {
  static const KernelTable table = {
      "scalar",          popcount_words_scalar, xor_popcount_scalar,
      planes_dot_scalar, pack_signs_scalar,     gemv_f32_scalar,
      gemm_f32_scalar,   sparse_gemv_f32_scalar, detail::ternary_project_scalar,
  };
  return table;
}

}  // namespace edgehd::hdc::kernels
