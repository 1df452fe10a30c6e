// Feature-space → hyperspace encoders (paper Section III-A and V-A).
//
// The paper's contribution on the encoding side is a *non-linear* universal
// encoder built from random Fourier features: each output dimension is
//
//     h_i = cos(B_i · F + b_i) * sin(B_i · F)
//
// with B_i ~ N(0,1)^n and b_i ~ U(0, 2pi), binarized with sign() for
// computation efficiency. Inner products of the (real, cos-form) encodings
// approximate the Gaussian RBF kernel (Eq. 1–2), which is what lets a linear
// class-hypervector model separate non-linearly separable data.
//
// Three encoder families live here:
//  * RbfEncoder        — dense projection matrix, the reference encoder.
//  * SparseRbfEncoder  — each projection row keeps only a contiguous window
//                        of (1-s)*n non-zeros plus its start index, exactly
//                        the storage layout of the FPGA design (Section V-A).
//  * LinearLevelEncoder— the ID–level encoding of prior HD work [36]; kept as
//                        the "baseline HD" comparator of Figure 7.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hypervector.hpp"
#include "kernels/kernels.hpp"
#include "projection.hpp"
#include "runtime/thread_pool.hpp"

namespace edgehd::hdc {

/// Abstract feature-vector → hypervector encoder.
///
/// Implementations are immutable after construction: the random projection
/// state is generated once from the seed and then shared by training and
/// inference (the paper generates {B_1..B_D} "once offline").
class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Dimensionality D of produced hypervectors.
  virtual std::size_t dim() const noexcept = 0;

  /// Expected input feature count n.
  virtual std::size_t input_dim() const noexcept = 0;

  /// Encodes a feature vector into a bipolar hypervector.
  /// Precondition: features.size() == input_dim().
  virtual BipolarHV encode(std::span<const float> features) const = 0;

  /// Encodes into the pre-binarization real hypervector. The default forwards
  /// to encode(); kernel-approximating encoders override it.
  virtual RealHV encode_real(std::span<const float> features) const;

  /// Encodes a batch of feature vectors, fanning samples over `pool`.
  /// The default fans the identical per-sample encode(); the RFF encoders
  /// override it with a chunked matrix–matrix product. Either way the
  /// result is bit-identical to the serial per-sample loop for any worker
  /// count. Results are in input order.
  virtual std::vector<BipolarHV> encode_batch(
      std::span<const std::vector<float>> features,
      runtime::ThreadPool& pool) const;

  /// Serial fallback on the process-global pool.
  std::vector<BipolarHV> encode_batch(
      std::span<const std::vector<float>> features) const;

  /// Resident bytes of random projection state (rows + biases + window
  /// starts + generation counters); 0 when the encoder has none.
  virtual std::size_t projection_resident_bytes() const noexcept { return 0; }

  /// True when per-dimension regeneration is supported (the RFF encoders).
  virtual bool supports_regeneration() const noexcept { return false; }

  /// Generation counter of output dimension `d`; 0 = original derivation.
  virtual std::uint16_t dimension_generation(
      std::size_t /*d*/) const noexcept {
    return 0;
  }

  /// Re-derives the projection rows of `dims` (ascending, in range) from
  /// bumped per-dimension generation counters. Throws std::logic_error when
  /// the encoder does not support regeneration.
  virtual void regenerate_dimensions(std::span<const std::uint32_t> dims);

  /// Partial encode: out[j] = encode(features)[dims[j]] for ascending `dims`.
  /// The default encodes fully and gathers; the RFF encoders override it
  /// with a gathered-row projection that costs O(k·n) per sample.
  virtual void encode_dims(std::span<const float> features,
                           std::span<const std::uint32_t> dims,
                           std::span<std::int8_t> out) const;
};

/// Kernel form used by RbfEncoder.
enum class RbfForm : std::uint8_t {
  /// h_i = cos(B_i·F + b_i) * sin(B_i·F) — the paper's production formula.
  kCosSin,
  /// h_i = sqrt(2/D) * cos(B_i·F + b_i) — the textbook RFF map of Eq. 2,
  /// whose inner products converge to the RBF kernel; used by the kernel
  /// approximation property tests and the encoding ablation.
  kCos,
};

/// Dense random-Fourier-feature encoder approximating the RBF kernel.
class RbfEncoder final : public Encoder {
 public:
  /// @param input_dim   feature count n
  /// @param dim         hypervector dimensionality D
  /// @param seed        master seed for B and b
  /// @param length_scale  RBF length scale; projections are scaled by
  ///                      1/length_scale, so larger values give smoother
  ///                      (wider) kernels. Pass 0 (the default) to use
  ///                      sqrt(n), which keeps the projected variance of
  ///                      z-scored features at ~1 for any feature count.
  /// @param form        kernel form (see RbfForm)
  /// @param mode        projection draws (see ProjectionMode). kStored
  ///                    reproduces the historical draws bit-for-bit;
  ///                    kDeterministic derives rows from counter streams.
  /// @param budget_bytes  kDeterministic only: the rows stay resident while
  ///                    they fit this many bytes and are streamed per chunk
  ///                    past it, with bit-identical encodings either way.
  RbfEncoder(std::size_t input_dim, std::size_t dim, std::uint64_t seed,
             float length_scale = 0.0F, RbfForm form = RbfForm::kCosSin,
             ProjectionMode mode = ProjectionMode::kStored,
             std::size_t budget_bytes = kDefaultProjectionBudgetBytes);

  std::size_t dim() const noexcept override { return dim_; }
  std::size_t input_dim() const noexcept override { return input_dim_; }
  BipolarHV encode(std::span<const float> features) const override;
  RealHV encode_real(std::span<const float> features) const override;

  /// Chunked GEMM over the batch: every chunk of samples runs one blocked
  /// matrix–matrix product against the projection (kernels::gemm_f32)
  /// instead of per-sample GEMVs, with per-thread scratch reuse.
  std::vector<BipolarHV> encode_batch(
      std::span<const std::vector<float>> features,
      runtime::ThreadPool& pool) const override;

  std::size_t projection_resident_bytes() const noexcept override;
  bool supports_regeneration() const noexcept override { return true; }
  std::uint16_t dimension_generation(std::size_t d) const noexcept override {
    return provider_->generation(d);
  }
  void regenerate_dimensions(std::span<const std::uint32_t> dims) override;
  void encode_dims(std::span<const float> features,
                   std::span<const std::uint32_t> dims,
                   std::span<std::int8_t> out) const override;

 private:
  /// GEMV of the projection against `features` into `proj` (size dim_),
  /// chunked over provider row blocks through the dispatched kernel table.
  void project(std::span<const float> features, float* proj) const;
  /// Applies the kernel form + sign to a projection row, writing bipolar
  /// components (the fused tail of encode()).
  void finish_bipolar(const float* proj, std::int8_t* out) const;
  float bias(std::size_t i) const noexcept { return provider_->bias(i); }

  std::size_t input_dim_;
  std::size_t dim_;
  RbfForm form_;
  std::unique_ptr<ProjectionProvider> provider_;  // D x n, pre-scaled by 1/w
};

/// Sparse RFF encoder mirroring the FPGA weight-vector storage: row i of the
/// projection holds `nonzeros` consecutive Gaussian values starting at a
/// random feature index (wrapping around), everything else is zero. With
/// sparsity s, nonzeros = max(1, round((1-s) * n)).
class SparseRbfEncoder final : public Encoder {
 public:
  /// `length_scale` 0 (default) auto-selects sqrt(window), the scale that
  /// keeps projected variance ~1 for z-scored features. `mode` and
  /// `budget_bytes` are as for RbfEncoder.
  SparseRbfEncoder(std::size_t input_dim, std::size_t dim, std::uint64_t seed,
                   float sparsity = 0.8F, float length_scale = 0.0F,
                   ProjectionMode mode = ProjectionMode::kStored,
                   std::size_t budget_bytes = kDefaultProjectionBudgetBytes);

  std::size_t dim() const noexcept override { return dim_; }
  std::size_t input_dim() const noexcept override { return input_dim_; }
  BipolarHV encode(std::span<const float> features) const override;
  RealHV encode_real(std::span<const float> features) const override;

  /// Chunked batch encode through the sparse-window GEMV kernel with
  /// per-thread scratch reuse.
  std::vector<BipolarHV> encode_batch(
      std::span<const std::vector<float>> features,
      runtime::ThreadPool& pool) const override;

  /// Non-zero window length per projection row.
  std::size_t nonzeros_per_row() const noexcept { return window_; }

  /// Multiplications needed per encoded dimension (== nonzeros_per_row());
  /// the FPGA model uses this for DSP occupancy.
  std::size_t macs_per_dim() const noexcept { return window_; }

  std::size_t projection_resident_bytes() const noexcept override;
  bool supports_regeneration() const noexcept override { return true; }
  std::uint16_t dimension_generation(std::size_t d) const noexcept override {
    return provider_->generation(d);
  }
  void regenerate_dimensions(std::span<const std::uint32_t> dims) override;
  void encode_dims(std::span<const float> features,
                   std::span<const std::uint32_t> dims,
                   std::span<std::int8_t> out) const override;

 private:
  /// Sparse GEMV into `proj` using `xx`, the features doubled ([x, x]) so
  /// wrapped windows read contiguously; chunked over provider row blocks.
  void project_doubled(const float* xx, float* proj) const;
  void finish_bipolar(const float* proj, std::int8_t* out) const;
  float bias(std::size_t i) const noexcept { return provider_->bias(i); }

  std::size_t input_dim_;
  std::size_t dim_;
  std::size_t window_;
  std::unique_ptr<ProjectionProvider> provider_;  // D x window, pre-scaled
};

/// ID–level encoding of prior HD classifiers [36] (the Figure 7 "baseline
/// HD"): feature values are quantized into `levels` correlated level
/// hypervectors, bound with a random per-feature ID hypervector, and bundled.
/// The map is linear in the level representation, which is exactly the
/// weakness the paper's non-linear encoder addresses.
class LinearLevelEncoder final : public Encoder {
 public:
  /// @param lo,hi  expected feature range for quantization; values outside
  ///               are clamped.
  LinearLevelEncoder(std::size_t input_dim, std::size_t dim, std::uint64_t seed,
                     std::size_t levels = 32, float lo = -3.0F, float hi = 3.0F);

  std::size_t dim() const noexcept override { return dim_; }
  std::size_t input_dim() const noexcept override { return input_dim_; }
  BipolarHV encode(std::span<const float> features) const override;

  std::size_t levels() const noexcept { return levels_; }

 private:
  std::size_t input_dim_;
  std::size_t dim_;
  std::size_t levels_;
  float lo_;
  float hi_;
  std::vector<std::int8_t> ids_;     // input_dim x dim bipolar ID hypervectors
  std::vector<std::int8_t> levels_hv_;  // levels x dim correlated level HVs
};

/// Factory helpers so callers can pick encoders by name (used by benches).
enum class EncoderKind : std::uint8_t { kRbfDense, kRbfSparse, kLinearLevel };

/// `mode` and `budget_bytes` select the projection draws and residency for
/// the RFF encoders; the linear level encoder has no projection matrix and
/// ignores them.
std::unique_ptr<Encoder> make_encoder(
    EncoderKind kind, std::size_t input_dim, std::size_t dim,
    std::uint64_t seed, ProjectionMode mode = ProjectionMode::kStored,
    std::size_t budget_bytes = kDefaultProjectionBudgetBytes);

}  // namespace edgehd::hdc
