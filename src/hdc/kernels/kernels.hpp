// Compute kernels for the HDC hot path, with runtime CPU dispatch.
//
// Every EdgeHD operation bottoms out in three inner loops — the encoder's
// D x n projection (GEMV/GEMM), the bipolar dot/bundle algebra, and the
// classifier's per-query similarity scan. This layer provides those loops as
// a table of function pointers with three interchangeable backends:
//
//   * scalar — portable C++ reference, the semantic ground truth;
//   * avx2   — x86-64 AVX2 (compiled into its own TU with -mavx2, selected
//              at runtime via cpuid);
//   * neon   — aarch64 NEON (baseline ISA on that architecture).
//
// The hard contract: every backend is BIT-IDENTICAL to the scalar reference,
// floats included. Integer kernels are exact by construction (popcounts and
// two's-complement sums have one value). Float kernels preserve the scalar
// accumulation order by vectorizing across *outputs* (8 GEMV rows at a time,
// one row per SIMD lane), never across the reduction index, and are compiled
// with -ffp-contract=off so no backend fuses multiply-add. This is what lets
// EDGEHD_KERNEL be a pure speed knob under PR 1's determinism contract:
// models, predictions, and protocol byte counts do not change with the
// backend, the worker count, or the build's -march.
//
// Dispatch is resolved once, at first use: EDGEHD_KERNEL=scalar|simd
// overrides; "auto" (default) picks the best backend the CPU supports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace edgehd::hdc::kernels {

/// Resolved dispatch target.
enum class Backend : std::uint8_t { kScalar, kSimd };

/// Words needed for `dim` packed components.
constexpr std::size_t packed_words(std::size_t dim) noexcept {
  return (dim + 63) / 64;
}

/// The kernel function table. All pointers are non-null in every table.
///
/// Bit-packed layout (shared with wire.cpp): component i lives in bit
/// (i % 64) of word (i / 64); on the wire the same bits appear as
/// little-endian bytes. Padding bits past `dim` are zero.
struct KernelTable {
  const char* name;  ///< "scalar", "avx2", or "neon"

  /// Total popcount of `words` 64-bit words.
  std::uint64_t (*popcount_words)(const std::uint64_t* w, std::size_t words);

  /// popcount(a XOR b) over `words` words (hamming mismatches of two packed
  /// strictly-bipolar hypervectors).
  std::uint64_t (*xor_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words);

  /// Bit-plane dot product: returns sum_i a_i * c_i where the query a is
  /// given as two masks (pos: bit set where a_i = +1, neg: bit set where
  /// a_i = -1; components that are neither — the "silence" convention —
  /// contribute nothing) and the int32 accumulator c is given as `nplanes`
  /// two's-complement bit planes of `words` words each, plane-major. Plane b
  /// carries weight 2^b, except the top plane which carries -2^(nplanes-1).
  /// Exact int64 arithmetic, identical in every backend.
  std::int64_t (*planes_dot)(const std::uint64_t* pos,
                             const std::uint64_t* neg,
                             const std::uint64_t* planes, std::size_t words,
                             std::size_t nplanes);

  /// Packs sign masks of an int8 vector: bit i of pos = (v[i] > 0), bit i of
  /// neg = (v[i] < 0). `neg` may be null. Padding bits are zeroed. Both
  /// outputs must hold (n + 63) / 64 words.
  void (*pack_signs)(const std::int8_t* v, std::size_t n, std::uint64_t* pos,
                     std::uint64_t* neg);

  /// Dense GEMV over the 8-row-interleaved blocked layout (BlockedMatrixF32):
  /// out[r] = sum_j W[r][j] * x[j], accumulated in ascending j with separate
  /// multiply and add roundings (the scalar reference order) for every row.
  void (*gemv_f32)(const float* blocked, std::size_t rows, std::size_t cols,
                   const float* x, float* out);

  /// Batched GEMV (the encode_batch matrix-matrix product): outs[s][r] =
  /// sum_j W[r][j] * xs[s][j] for s in [0, count). Per-(s, r) accumulation
  /// order is exactly gemv_f32's; sample blocking only changes locality.
  void (*gemm_f32)(const float* blocked, std::size_t rows, std::size_t cols,
                   const float* const* xs, float* const* outs,
                   std::size_t count);

  /// Sparse contiguous-window GEMV (SparseRbfEncoder rows): out[r] =
  /// sum_j W[r][j] * xx[starts[r] + j], where xx is the feature vector
  /// doubled ([x, x], length 2n) so wrapped windows read contiguously.
  void (*sparse_gemv_f32)(const float* blocked, const std::uint32_t* starts,
                          std::size_t rows, std::size_t window,
                          const float* xx, float* out);

  /// Sparse ternary projection over a transposed tile (the hierarchical
  /// aggregation, hier::HierEncoder). Row r has `nnz` input taps stored
  /// sign-sorted at taps[r * nnz ..]: the first npos[r] carry +1, the rest
  /// -1. The tile holds q samples column-wise, tile[i * q + s] = input i of
  /// sample s, and for every r in [0, rows) and s in [0, q):
  ///   out[r * q + s] = sum_{t < npos[r]} tile[taps[r * nnz + t] * q + s]
  ///                  - sum_{npos[r] <= t < nnz} tile[taps[r * nnz + t] * q + s]
  /// in int64 lanes, so every int32 input sums exactly and every backend
  /// returns the same value.
  void (*ternary_project)(const std::uint32_t* taps, const std::uint32_t* npos,
                          std::size_t nnz, std::size_t rows,
                          const std::int32_t* tile, std::size_t q,
                          std::int64_t* out);
};

namespace detail {
/// The scalar ternary_project, shared by backends that have no faster one
/// (NEON) and by the AVX2 kernel for narrow tiles (q < 4, e.g. one query).
void ternary_project_scalar(const std::uint32_t* taps,
                            const std::uint32_t* npos, std::size_t nnz,
                            std::size_t rows, const std::int32_t* tile,
                            std::size_t q, std::int64_t* out);
}  // namespace detail

/// The portable reference table. Always available.
const KernelTable& scalar_table();

/// The best SIMD table this binary carries AND this CPU supports, or null
/// (no AVX2 at runtime, non-x86/arm build, or -DEDGEHD_DISABLE_SIMD=ON).
const KernelTable* simd_table();

/// The dispatch-selected table: resolved once from EDGEHD_KERNEL
/// ("scalar" | "simd" | "auto"/unset) and the CPU, then cached.
const KernelTable& active();

/// Name of the active backend ("scalar", "avx2", "neon").
const char* backend_name();

/// Swaps the active table (test/bench A/B hook). Returns false — and leaves
/// the scalar table active — when kSimd is requested but unavailable. Not
/// safe to call while other threads are inside kernel calls.
bool force_backend(Backend b);

/// Row-major D x n matrix repacked into 8-row-interleaved blocks so SIMD
/// GEMV assigns one row per lane: element (r, c) lives at
/// data[(r / 8) * cols * 8 + c * 8 + (r % 8)]. Padding rows (when rows % 8
/// != 0) are zero-filled and never written to outputs.
class BlockedMatrixF32 {
 public:
  static constexpr std::size_t kLane = 8;

  BlockedMatrixF32() = default;
  BlockedMatrixF32(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        data_(((rows + kLane - 1) / kLane) * cols * kLane, 0.0F) {}

  static BlockedMatrixF32 from_row_major(const float* src, std::size_t rows,
                                         std::size_t cols) {
    BlockedMatrixF32 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = src[r * cols + c];
    }
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  const float* data() const noexcept { return data_.data(); }

  float& at(std::size_t r, std::size_t c) noexcept {
    return data_[(r / kLane) * cols_ * kLane + c * kLane + (r % kLane)];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    return data_[(r / kLane) * cols_ * kLane + c * kLane + (r % kLane)];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace edgehd::hdc::kernels
