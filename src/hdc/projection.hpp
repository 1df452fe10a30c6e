// Projection provider: where the RFF encoders' random rows live.
//
// The paper's encoders draw a D x n Gaussian projection matrix B once and
// keep it resident — O(n·D) floats per leaf, the single largest per-node
// memory cost in the system. XL-HD-style deterministic projections make that
// cost optional: every row is a pure function of (seed, row, generation), so
// it can be re-derived on demand instead of stored. DistHD-style dimension
// regeneration then becomes a counter bump: re-deriving row i at generation
// g+1 replaces an undiscriminating dimension with a fresh one, reproducibly
// on every node that knows (seed, i, g+1).
//
// One provider covers the trade-off space, by a per-leaf byte budget:
//   * Resident — the blocked matrix, biases and (sparse) window starts are
//     held in memory and block() returns an interior pointer. Legacy
//     sequential draws (ProjectionMode::kStored) are always resident;
//     counter-derived rows are resident while they fit the budget.
//   * Streamed — counter-derived rows past the budget hold ~zero resident
//     bytes: rows are derived per 256-row chunk into caller-provided scratch,
//     in the same 8-row-interleaved blocked layout the GEMV/GEMM kernels
//     consume. A blocked sub-range starting at an 8-aligned row is layout-
//     and accumulation-order-identical to the same rows of a resident
//     matrix, so streamed encoding is bit-identical to resident encoding.
//
// Row values come from a counter-based SplitMix64 stream (random access, no
// sequential state): position p of row r at generation g is
// splitmix64(derive_seed(derive_seed(base, r), g) + (p+1)·golden). Gaussians
// use two u64 positions via Box–Muller, the bias draw sits at position
// 2·cols, and the sparse window start at 2·cols + 1, so regenerating a row
// refreshes its weights, bias and window together.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.hpp"
#include "random.hpp"

namespace edgehd::hdc {

/// How an RFF encoder draws its projection rows.
enum class ProjectionMode : std::uint8_t {
  /// Legacy sequential draws, always resident (the golden-pinned default).
  kStored,
  /// Counter-derived rows: resident within the projection byte budget,
  /// streamed per chunk past it.
  kDeterministic,
};

const char* to_string(ProjectionMode mode) noexcept;

/// Default per-leaf projection budget: covers every Table-I leaf at the
/// paper's D = 4000 with either RFF encoder. The largest is MNIST's single
/// 784-feature leaf under the dense encoder, 12,560,000 B (12,544,000 B of
/// rows + 16,000 B of biases).
inline constexpr std::size_t kDefaultProjectionBudgetBytes = std::size_t{16}
                                                             << 20;

/// Value at position `pos` of the counter stream keyed by `stream_seed`.
constexpr std::uint64_t stream_u64(std::uint64_t stream_seed,
                                   std::uint64_t pos) noexcept {
  std::uint64_t s = stream_seed + pos * 0x9e3779b97f4a7c15ULL;
  return splitmix64(s);
}

/// Standard normal value at gaussian index `index` (consumes u64 positions
/// 2·index and 2·index + 1) via Box–Muller.
float stream_gaussian(std::uint64_t stream_seed, std::uint64_t index) noexcept;

/// Uniform [0, 2pi) value at u64 position `pos`.
float stream_uniform_two_pi(std::uint64_t stream_seed,
                            std::uint64_t pos) noexcept;

/// Source of projection rows, biases and window starts for the RFF encoders.
/// Owns the per-row generation counters; derivation parameters (stream base
/// seed, 1/length scale) live here so legacy and counter-derived rows
/// regenerate identically.
class ProjectionProvider {
 public:
  /// Wraps externally drawn rows, biases and window starts (legacy
  /// sequential draw order), always resident. `start_range` is the sparse
  /// window starts' range [0, start_range), i.e. the input dimension, and 0
  /// for dense projections (no starts).
  ProjectionProvider(kernels::BlockedMatrixF32 matrix, std::vector<float> bias,
                     std::vector<std::uint32_t> starts,
                     std::uint64_t stream_base, float scale,
                     std::size_t start_range);

  /// Counter-derived rows, biases and (start_range > 0) window starts. They
  /// are derived once and kept resident when the 8-row-padded matrix, one
  /// bias per row and (sparse) one window start per row fit `budget_bytes`,
  /// else derived per chunk on access.
  ProjectionProvider(std::size_t rows, std::size_t cols,
                     std::uint64_t stream_base, float scale,
                     std::size_t start_range, std::size_t budget_bytes);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// Generation counter of `row`; 0 until the row is first regenerated.
  std::uint16_t generation(std::size_t row) const noexcept {
    return gens_.empty() ? std::uint16_t{0} : gens_[row];
  }

  /// Bias of `row` at its current generation, in [0, 2pi).
  float bias(std::size_t row) const noexcept {
    return bias_.empty() ? derived_bias(row) : bias_[row];
  }

  /// Sparse window start of `row` at its current generation, in
  /// [0, start_range).
  std::uint32_t start(std::size_t row) const noexcept {
    return start_.empty() ? derived_start(row) : start_[row];
  }

  /// Pointer to blocked data for rows [first, first + count); `first` must be
  /// a multiple of 8. Resident rows are returned as an interior pointer and
  /// `scratch` is left alone; streamed rows are derived into `scratch`
  /// (resized on demand) and scratch.data() is returned.
  const float* block(std::size_t first, std::size_t count,
                     std::vector<float>& scratch) const;

  /// Window starts of rows [first, first + count): an interior pointer when
  /// resident, else derived into `scratch`.
  const std::uint32_t* starts(std::size_t first, std::size_t count,
                              std::vector<std::uint32_t>& scratch) const;

  /// Row-chunk size encoders should drive GEMV/GEMM with: rows() when
  /// resident; a cache-friendly multiple of 8 when streamed.
  std::size_t preferred_chunk() const noexcept;

  /// Bytes held resident (matrix + biases + starts + generation counters).
  std::size_t resident_bytes() const noexcept;

  /// Bumps the generation counter of each listed row (ascending, in range)
  /// and — when resident — overwrites the row, its bias and its window start
  /// with their re-derived replacements.
  void regenerate(std::span<const std::uint32_t> rows);

  /// Gathered blocked matrix of arbitrary `rows` into `out` (rows.size()
  /// rows padded to a multiple of 8, zero-filled padding), for partial
  /// encodes over a dimension subset.
  void gather(std::span<const std::uint32_t> rows,
              std::vector<float>& out) const;

 private:
  bool resident() const noexcept { return matrix_.rows() != 0; }

  /// Counter-derivation of `row` at its current generation: column c goes
  /// to dst[c * stride].
  void derive_row(std::size_t row, float* dst,
                  std::size_t stride) const noexcept;

  float derived_bias(std::size_t row) const noexcept {
    return stream_uniform_two_pi(row_stream(row), 2 * cols_);
  }
  std::uint32_t derived_start(std::size_t row) const noexcept {
    return static_cast<std::uint32_t>(
        stream_u64(row_stream(row), 2 * cols_ + 1) % start_range_);
  }
  std::uint64_t row_stream(std::size_t row) const noexcept {
    return derive_seed(derive_seed(stream_base_, row), generation(row));
  }

  std::size_t rows_;
  std::size_t cols_;
  std::uint64_t stream_base_;
  float scale_;
  std::size_t start_range_;            ///< 0 for dense projections
  kernels::BlockedMatrixF32 matrix_;  ///< empty when streamed
  std::vector<float> bias_;           ///< empty when streamed
  std::vector<std::uint32_t> start_;  ///< empty when streamed or dense
  std::vector<std::uint16_t> gens_;   ///< lazily sized on first regenerate
};

}  // namespace edgehd::hdc
