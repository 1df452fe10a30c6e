#include "projection.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

namespace edgehd::hdc {

namespace {

constexpr std::size_t kLane = kernels::BlockedMatrixF32::kLane;

/// `rows` rounded up to whole 8-row kernel blocks.
constexpr std::size_t padded_rows(std::size_t rows) noexcept {
  return (rows + kLane - 1) / kLane * kLane;
}

/// u64 -> double in [0, 1) with 53 significant bits.
constexpr double unit_double(std::uint64_t u) noexcept {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(ProjectionMode mode) noexcept {
  switch (mode) {
    case ProjectionMode::kStored:
      return "stored";
    case ProjectionMode::kDeterministic:
      return "deterministic";
  }
  return "unknown";
}

float stream_gaussian(std::uint64_t stream_seed, std::uint64_t index) noexcept {
  // Box–Muller in double, rounded to float once; u1 shifted into (0, 1] so
  // the log is always finite.
  const double u1 = unit_double(stream_u64(stream_seed, 2 * index)) +
                    0x1.0p-53;
  const double u2 = unit_double(stream_u64(stream_seed, 2 * index + 1));
  const double r = std::sqrt(-2.0 * std::log(u1));
  return static_cast<float>(r * std::cos(2.0 * std::numbers::pi * u2));
}

float stream_uniform_two_pi(std::uint64_t stream_seed,
                            std::uint64_t pos) noexcept {
  return static_cast<float>(2.0 * std::numbers::pi *
                            unit_double(stream_u64(stream_seed, pos)));
}

// ------------------------------------------------------- ProjectionProvider

ProjectionProvider::ProjectionProvider(kernels::BlockedMatrixF32 matrix,
                                       std::vector<float> bias,
                                       std::vector<std::uint32_t> starts,
                                       std::uint64_t stream_base, float scale,
                                       std::size_t start_range)
    : rows_(matrix.rows()),
      cols_(matrix.cols()),
      stream_base_(stream_base),
      scale_(scale),
      start_range_(start_range),
      matrix_(std::move(matrix)),
      bias_(std::move(bias)),
      start_(std::move(starts)) {
  if (rows_ == 0 || cols_ == 0 || bias_.size() != rows_ ||
      (!start_.empty() && start_.size() != rows_)) {
    throw std::invalid_argument(
        "ProjectionProvider: dimensions must be positive and match");
  }
}

ProjectionProvider::ProjectionProvider(std::size_t rows, std::size_t cols,
                                       std::uint64_t stream_base, float scale,
                                       std::size_t start_range,
                                       std::size_t budget_bytes)
    : rows_(rows),
      cols_(cols),
      stream_base_(stream_base),
      scale_(scale),
      start_range_(start_range) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument(
        "ProjectionProvider: dimensions must be positive");
  }
  const bool sparse = start_range > 0;
  const std::size_t cost = padded_rows(rows) * cols * sizeof(float) +
                           rows * sizeof(float) +
                           (sparse ? rows * sizeof(std::uint32_t) : 0);
  if (cost > budget_bytes) return;
  matrix_ = kernels::BlockedMatrixF32(rows, cols);
  bias_.resize(rows);
  if (sparse) start_.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    derive_row(r, &matrix_.at(r, 0), kLane);
    bias_[r] = derived_bias(r);
    if (sparse) start_[r] = derived_start(r);
  }
}

void ProjectionProvider::derive_row(std::size_t row, float* dst,
                                    std::size_t stride) const noexcept {
  const std::uint64_t s = row_stream(row);
  for (std::size_t j = 0; j < cols_; ++j) {
    dst[j * stride] = stream_gaussian(s, j) * scale_;
  }
}

const float* ProjectionProvider::block(std::size_t first, std::size_t count,
                                       std::vector<float>& scratch) const {
  if (resident()) return matrix_.data() + (first / kLane) * cols_ * kLane;
  scratch.assign(padded_rows(count) * cols_, 0.0F);
  for (std::size_t i = 0; i < count; ++i) {
    derive_row(first + i,
               scratch.data() + (i / kLane) * cols_ * kLane + (i % kLane),
               kLane);
  }
  return scratch.data();
}

const std::uint32_t* ProjectionProvider::starts(
    std::size_t first, std::size_t count,
    std::vector<std::uint32_t>& scratch) const {
  if (!start_.empty()) return start_.data() + first;
  if (scratch.size() < count) scratch.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    scratch[i] = derived_start(first + i);
  }
  return scratch.data();
}

std::size_t ProjectionProvider::preferred_chunk() const noexcept {
  if (resident()) return rows_;
  // 256 rows x cols floats of scratch per chunk: small enough to stay in L2
  // for any realistic feature count, large enough to amortize the GEMV call.
  constexpr std::size_t kChunk = 256;
  return rows_ < kChunk ? padded_rows(rows_) : kChunk;
}

std::size_t ProjectionProvider::resident_bytes() const noexcept {
  const std::size_t matrix = resident() ? padded_rows(rows_) * cols_ : 0;
  return matrix * sizeof(float) + bias_.size() * sizeof(float) +
         start_.size() * sizeof(std::uint32_t) +
         gens_.size() * sizeof(std::uint16_t);
}

void ProjectionProvider::regenerate(std::span<const std::uint32_t> rows) {
  for (const std::uint32_t r : rows) {
    if (r >= rows_) {
      throw std::invalid_argument(
          "ProjectionProvider: regenerate row out of range: " +
          std::to_string(r));
    }
  }
  if (gens_.empty()) gens_.assign(rows_, 0);
  for (const std::uint32_t r : rows) {
    ++gens_[r];
    if (!resident()) continue;
    derive_row(r, &matrix_.at(r, 0), kLane);
    bias_[r] = derived_bias(r);
    if (!start_.empty()) start_[r] = derived_start(r);
  }
}

void ProjectionProvider::gather(std::span<const std::uint32_t> rows,
                                std::vector<float>& out) const {
  out.assign(padded_rows(rows.size()) * cols_, 0.0F);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    float* dst = out.data() + (i / kLane) * cols_ * kLane + (i % kLane);
    if (resident()) {
      for (std::size_t c = 0; c < cols_; ++c) {
        dst[c * kLane] = matrix_.at(rows[i], c);
      }
    } else {
      derive_row(rows[i], dst, kLane);
    }
  }
}

}  // namespace edgehd::hdc
