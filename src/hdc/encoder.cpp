#include "encoder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "random.hpp"
#include "runtime/batch_executor.hpp"

namespace edgehd::hdc {

namespace {

constexpr float kTwoPi = 2.0F * std::numbers::pi_v<float>;

struct EncoderObs {
  obs::Counter batches;
  obs::Counter batch_samples;
  obs::Histogram batch_ns;  ///< wall clock — registered volatile

  static const EncoderObs& get() {
    static const EncoderObs o = [] {
      EncoderObs e;
      if constexpr (obs::kEnabled) {
        auto& reg = obs::MetricsRegistry::global();
        e.batches = reg.counter("hdc.encode.batches");
        e.batch_samples = reg.counter("hdc.encode.batch_samples");
        // 1 µs .. ~1 s in decade-ish steps.
        e.batch_ns = reg.histogram(
            "hdc.encode.batch_ns",
            {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9},
            /*stable=*/false);
      }
      return e;
    }();
    return o;
  }
};

/// Counts one encode_batch call; the timer feeds the latency histogram on
/// scope exit.
struct BatchScope {
  explicit BatchScope(std::size_t samples)
      : timer(EncoderObs::get().batch_ns) {
    EncoderObs::get().batches.inc();
    EncoderObs::get().batch_samples.inc(samples);
  }
  obs::ScopedTimerNs timer;
};

/// Per-thread float scratch, resized on demand. Shared by every encoder on
/// the thread — contents never outlive one call.
std::vector<float>& scratch_f32(std::size_t n) {
  static thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

std::vector<float>& scratch2_f32(std::size_t n) {
  static thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

/// Per-thread scratch for streamed projection rows (sized by the provider's
/// block()); a separate buffer so it can coexist with the projection scratch
/// within one encode call.
std::vector<float>& scratch_rows_f32() {
  static thread_local std::vector<float> buf;
  return buf;
}

std::vector<std::uint32_t>& scratch_u32(std::size_t n) {
  static thread_local std::vector<std::uint32_t> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

}  // namespace

RealHV Encoder::encode_real(std::span<const float> features) const {
  const BipolarHV hv = encode(features);
  RealHV out(hv.size());
  std::transform(hv.begin(), hv.end(), out.begin(),
                 [](std::int8_t v) { return static_cast<float>(v); });
  return out;
}

std::vector<BipolarHV> Encoder::encode_batch(
    std::span<const std::vector<float>> features,
    runtime::ThreadPool& pool) const {
  const BatchScope scope(features.size());
  const runtime::BatchExecutor exec(pool);
  return exec.map(features.size(),
                  [&](std::size_t i) { return encode(features[i]); });
}

std::vector<BipolarHV> Encoder::encode_batch(
    std::span<const std::vector<float>> features) const {
  return encode_batch(features, runtime::ThreadPool::global());
}

void Encoder::regenerate_dimensions(std::span<const std::uint32_t> /*dims*/) {
  throw std::logic_error(
      "Encoder: dimension regeneration is not supported by this encoder");
}

void Encoder::encode_dims(std::span<const float> features,
                          std::span<const std::uint32_t> dims,
                          std::span<std::int8_t> out) const {
  assert(out.size() >= dims.size());
  const BipolarHV full = encode(features);
  for (std::size_t j = 0; j < dims.size(); ++j) out[j] = full[dims[j]];
}

// ---------------------------------------------------------------- RbfEncoder

RbfEncoder::RbfEncoder(std::size_t input_dim, std::size_t dim,
                       std::uint64_t seed, float length_scale, RbfForm form,
                       ProjectionMode mode, std::size_t budget_bytes)
    : input_dim_(input_dim), dim_(dim), form_(form) {
  if (input_dim == 0 || dim == 0) {
    throw std::invalid_argument("RbfEncoder: dimensions must be positive");
  }
  if (length_scale < 0.0F) {
    throw std::invalid_argument("RbfEncoder: length_scale must be >= 0");
  }
  if (length_scale == 0.0F) {
    // 2*sqrt(n) keeps the kernel wide enough to average out per-feature
    // noise while still resolving feature interactions (validated across the
    // Table-I workloads; see bench_ablation_encoding).
    length_scale = 2.0F * std::sqrt(static_cast<float>(input_dim));
  }
  const float scale = 1.0F / length_scale;
  // Stream index 3: 0/1 feed the legacy sequential draws, keeping the
  // counter-derived rows an independent stream under the same seed.
  const std::uint64_t stream_base = derive_seed(seed, 3);
  if (mode == ProjectionMode::kStored) {
    Rng proj_rng(derive_seed(seed, 0));
    Rng bias_rng(derive_seed(seed, 1));
    // Draw in row-major order (the historical draw order, so projections are
    // unchanged for a given seed), then repack into the blocked kernel layout.
    std::vector<float> row_major(dim_ * input_dim_);
    for (auto& w : row_major) w = proj_rng.gaussian() * scale;
    std::vector<float> bias(dim_);
    for (auto& b : bias) b = bias_rng.uniform(0.0F, kTwoPi);
    provider_ = std::make_unique<ProjectionProvider>(
        kernels::BlockedMatrixF32::from_row_major(row_major.data(), dim_,
                                                  input_dim_),
        std::move(bias), std::vector<std::uint32_t>{}, stream_base, scale,
        /*start_range=*/0);
  } else {
    provider_ = std::make_unique<ProjectionProvider>(
        dim_, input_dim_, stream_base, scale, /*start_range=*/0, budget_bytes);
  }
}

void RbfEncoder::project(std::span<const float> features, float* proj) const {
  assert(features.size() == input_dim_);
  const std::size_t chunk = provider_->preferred_chunk();
  for (std::size_t r0 = 0; r0 < dim_; r0 += chunk) {
    const std::size_t count = std::min(chunk, dim_ - r0);
    const float* blk = provider_->block(r0, count, scratch_rows_f32());
    kernels::active().gemv_f32(blk, count, input_dim_, features.data(),
                               proj + r0);
  }
}

void RbfEncoder::finish_bipolar(const float* proj, std::int8_t* out) const {
  const float amp = std::sqrt(2.0F / static_cast<float>(dim_));
  for (std::size_t i = 0; i < dim_; ++i) {
    const float h = form_ == RbfForm::kCosSin
                        ? std::cos(proj[i] + bias(i)) * std::sin(proj[i])
                        : amp * std::cos(proj[i] + bias(i));
    out[i] = h < 0.0F ? std::int8_t{-1} : std::int8_t{1};
  }
}

RealHV RbfEncoder::encode_real(std::span<const float> features) const {
  RealHV out(dim_);
  project(features, out.data());
  const float amp = std::sqrt(2.0F / static_cast<float>(dim_));
  for (std::size_t i = 0; i < dim_; ++i) {
    const float proj = out[i];
    out[i] = form_ == RbfForm::kCosSin
                 ? std::cos(proj + bias(i)) * std::sin(proj)
                 : amp * std::cos(proj + bias(i));
  }
  return out;
}

std::size_t RbfEncoder::projection_resident_bytes() const noexcept {
  return provider_->resident_bytes();
}

void RbfEncoder::regenerate_dimensions(std::span<const std::uint32_t> dims) {
  provider_->regenerate(dims);
}

void RbfEncoder::encode_dims(std::span<const float> features,
                             std::span<const std::uint32_t> dims,
                             std::span<std::int8_t> out) const {
  assert(features.size() == input_dim_ && out.size() >= dims.size());
  if (dims.empty()) return;
  std::vector<float>& blk = scratch_rows_f32();
  provider_->gather(dims, blk);
  std::vector<float>& proj = scratch_f32(dims.size());
  kernels::active().gemv_f32(blk.data(), dims.size(), input_dim_,
                             features.data(), proj.data());
  const float amp = std::sqrt(2.0F / static_cast<float>(dim_));
  for (std::size_t j = 0; j < dims.size(); ++j) {
    const float p = proj[j];
    const float h = form_ == RbfForm::kCosSin
                        ? std::cos(p + bias(dims[j])) * std::sin(p)
                        : amp * std::cos(p + bias(dims[j]));
    out[j] = h < 0.0F ? std::int8_t{-1} : std::int8_t{1};
  }
}

BipolarHV RbfEncoder::encode(std::span<const float> features) const {
  std::vector<float>& proj = scratch_f32(dim_);
  project(features, proj.data());
  BipolarHV out(dim_);
  finish_bipolar(proj.data(), out.data());
  return out;
}

std::vector<BipolarHV> RbfEncoder::encode_batch(
    std::span<const std::vector<float>> features,
    runtime::ThreadPool& pool) const {
  const BatchScope scope(features.size());
  std::vector<BipolarHV> out(features.size());
  const runtime::BatchExecutor exec(pool);
  exec.for_each_chunk(features.size(), [&](std::size_t begin, std::size_t end) {
    const std::size_t count = end - begin;
    // One matrix-matrix product per chunk: the projections of every sample
    // in the chunk land in one scratch block, then the nonlinearity + sign
    // runs over it. Scratch is per-thread, so repeated chunks reuse it.
    std::vector<float>& proj = scratch_f32(count * dim_);
    static thread_local std::vector<const float*> xs;
    static thread_local std::vector<float*> outs;
    xs.resize(count);
    outs.resize(count);
    for (std::size_t s = 0; s < count; ++s) {
      assert(features[begin + s].size() == input_dim_);
      xs[s] = features[begin + s].data();
    }
    // Row-chunked over the provider: resident projections run one full GEMM
    // (chunk == dim_), streamed projections derive a row block at a time
    // into per-thread scratch. Per-(sample, row) accumulation is identical
    // either way.
    const std::size_t chunk = provider_->preferred_chunk();
    for (std::size_t r0 = 0; r0 < dim_; r0 += chunk) {
      const std::size_t rc = std::min(chunk, dim_ - r0);
      const float* blk = provider_->block(r0, rc, scratch_rows_f32());
      for (std::size_t s = 0; s < count; ++s) {
        outs[s] = proj.data() + s * dim_ + r0;
      }
      kernels::active().gemm_f32(blk, rc, input_dim_, xs.data(), outs.data(),
                                 count);
    }
    for (std::size_t s = 0; s < count; ++s) {
      BipolarHV& hv = out[begin + s];
      hv.resize(dim_);
      finish_bipolar(proj.data() + s * dim_, hv.data());
    }
  });
  return out;
}

// ---------------------------------------------------------- SparseRbfEncoder

SparseRbfEncoder::SparseRbfEncoder(std::size_t input_dim, std::size_t dim,
                                   std::uint64_t seed, float sparsity,
                                   float length_scale, ProjectionMode mode,
                                   std::size_t budget_bytes)
    : input_dim_(input_dim), dim_(dim) {
  if (input_dim == 0 || dim == 0) {
    throw std::invalid_argument("SparseRbfEncoder: dimensions must be positive");
  }
  if (sparsity < 0.0F || sparsity >= 1.0F) {
    throw std::invalid_argument("SparseRbfEncoder: sparsity must be in [0, 1)");
  }
  if (length_scale < 0.0F) {
    throw std::invalid_argument("SparseRbfEncoder: length_scale must be >= 0");
  }
  const auto raw =
      static_cast<std::size_t>(std::lround((1.0F - sparsity) * input_dim));
  window_ = std::clamp<std::size_t>(raw, 1, input_dim_);
  if (length_scale == 0.0F) {
    length_scale = 2.0F * std::sqrt(static_cast<float>(window_));
  }

  const float scale = 1.0F / length_scale;
  const std::uint64_t stream_base = derive_seed(seed, 3);
  if (mode == ProjectionMode::kStored) {
    Rng w_rng(derive_seed(seed, 0));
    Rng b_rng(derive_seed(seed, 1));
    Rng s_rng(derive_seed(seed, 2));
    std::vector<float> row_major(dim_ * window_);
    for (auto& w : row_major) w = w_rng.gaussian() * scale;
    std::vector<float> bias(dim_);
    for (auto& b : bias) b = b_rng.uniform(0.0F, kTwoPi);
    std::vector<std::uint32_t> starts(dim_);
    for (auto& s : starts) {
      s = static_cast<std::uint32_t>(s_rng.index(input_dim_));
    }
    provider_ = std::make_unique<ProjectionProvider>(
        kernels::BlockedMatrixF32::from_row_major(row_major.data(), dim_,
                                                  window_),
        std::move(bias), std::move(starts), stream_base, scale, input_dim_);
  } else {
    provider_ = std::make_unique<ProjectionProvider>(
        dim_, window_, stream_base, scale, input_dim_, budget_bytes);
  }
}

void SparseRbfEncoder::project_doubled(const float* xx, float* proj) const {
  const std::size_t chunk = provider_->preferred_chunk();
  for (std::size_t r0 = 0; r0 < dim_; r0 += chunk) {
    const std::size_t count = std::min(chunk, dim_ - r0);
    const float* blk = provider_->block(r0, count, scratch_rows_f32());
    const std::uint32_t* starts =
        provider_->starts(r0, count, scratch_u32(count));
    kernels::active().sparse_gemv_f32(blk, starts, count, window_, xx,
                                      proj + r0);
  }
}

void SparseRbfEncoder::finish_bipolar(const float* proj,
                                      std::int8_t* out) const {
  for (std::size_t i = 0; i < dim_; ++i) {
    const float h = std::cos(proj[i] + bias(i)) * std::sin(proj[i]);
    out[i] = h < 0.0F ? std::int8_t{-1} : std::int8_t{1};
  }
}

std::size_t SparseRbfEncoder::projection_resident_bytes() const noexcept {
  return provider_->resident_bytes();
}

void SparseRbfEncoder::regenerate_dimensions(
    std::span<const std::uint32_t> dims) {
  provider_->regenerate(dims);
}

void SparseRbfEncoder::encode_dims(std::span<const float> features,
                                   std::span<const std::uint32_t> dims,
                                   std::span<std::int8_t> out) const {
  assert(features.size() == input_dim_ && out.size() >= dims.size());
  if (dims.empty()) return;
  std::vector<float>& xx = scratch2_f32(2 * input_dim_);
  std::copy(features.begin(), features.end(), xx.begin());
  std::copy(features.begin(), features.end(),
            xx.begin() + static_cast<std::ptrdiff_t>(input_dim_));
  std::vector<float>& blk = scratch_rows_f32();
  provider_->gather(dims, blk);
  std::vector<std::uint32_t>& starts = scratch_u32(dims.size());
  for (std::size_t j = 0; j < dims.size(); ++j) {
    starts[j] = provider_->start(dims[j]);
  }
  std::vector<float>& proj = scratch_f32(dims.size());
  kernels::active().sparse_gemv_f32(blk.data(), starts.data(), dims.size(),
                                    window_, xx.data(), proj.data());
  for (std::size_t j = 0; j < dims.size(); ++j) {
    const float h = std::cos(proj[j] + bias(dims[j])) * std::sin(proj[j]);
    out[j] = h < 0.0F ? std::int8_t{-1} : std::int8_t{1};
  }
}

RealHV SparseRbfEncoder::encode_real(std::span<const float> features) const {
  assert(features.size() == input_dim_);
  std::vector<float>& xx = scratch2_f32(2 * input_dim_);
  std::copy(features.begin(), features.end(), xx.begin());
  std::copy(features.begin(), features.end(),
            xx.begin() + static_cast<std::ptrdiff_t>(input_dim_));
  RealHV out(dim_);
  project_doubled(xx.data(), out.data());
  for (std::size_t i = 0; i < dim_; ++i) {
    const float proj = out[i];
    out[i] = std::cos(proj + bias(i)) * std::sin(proj);
  }
  return out;
}

BipolarHV SparseRbfEncoder::encode(std::span<const float> features) const {
  assert(features.size() == input_dim_);
  std::vector<float>& xx = scratch2_f32(2 * input_dim_);
  std::copy(features.begin(), features.end(), xx.begin());
  std::copy(features.begin(), features.end(),
            xx.begin() + static_cast<std::ptrdiff_t>(input_dim_));
  std::vector<float>& proj = scratch_f32(dim_);
  project_doubled(xx.data(), proj.data());
  BipolarHV out(dim_);
  finish_bipolar(proj.data(), out.data());
  return out;
}

std::vector<BipolarHV> SparseRbfEncoder::encode_batch(
    std::span<const std::vector<float>> features,
    runtime::ThreadPool& pool) const {
  const BatchScope scope(features.size());
  std::vector<BipolarHV> out(features.size());
  const runtime::BatchExecutor exec(pool);
  exec.for_each_chunk(features.size(), [&](std::size_t begin, std::size_t end) {
    std::vector<float>& xx = scratch2_f32(2 * input_dim_);
    std::vector<float>& proj = scratch_f32(dim_);
    for (std::size_t i = begin; i < end; ++i) {
      const std::vector<float>& f = features[i];
      assert(f.size() == input_dim_);
      std::copy(f.begin(), f.end(), xx.begin());
      std::copy(f.begin(), f.end(),
                xx.begin() + static_cast<std::ptrdiff_t>(input_dim_));
      project_doubled(xx.data(), proj.data());
      BipolarHV& hv = out[i];
      hv.resize(dim_);
      finish_bipolar(proj.data(), hv.data());
    }
  });
  return out;
}

// --------------------------------------------------------- LinearLevelEncoder

LinearLevelEncoder::LinearLevelEncoder(std::size_t input_dim, std::size_t dim,
                                       std::uint64_t seed, std::size_t levels,
                                       float lo, float hi)
    : input_dim_(input_dim), dim_(dim), levels_(levels), lo_(lo), hi_(hi) {
  if (input_dim == 0 || dim == 0 || levels < 2) {
    throw std::invalid_argument(
        "LinearLevelEncoder: need positive dims and >= 2 levels");
  }
  if (!(lo < hi)) {
    throw std::invalid_argument("LinearLevelEncoder: require lo < hi");
  }
  Rng id_rng(derive_seed(seed, 0));
  ids_.resize(input_dim_ * dim_);
  for (auto& v : ids_) v = id_rng.sign();

  // Correlated level hypervectors: start from a random HV and flip a fixed
  // random subset of D/(levels-1) fresh positions per step, so hamming
  // distance grows linearly with level separation.
  levels_hv_.assign(levels_ * dim_, 0);
  Rng lvl_rng(derive_seed(seed, 1));
  std::vector<std::int8_t> current = lvl_rng.sign_vector(dim_);
  std::copy(current.begin(), current.end(), levels_hv_.begin());
  std::vector<std::size_t> order(dim_);
  for (std::size_t i = 0; i < dim_; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), lvl_rng.engine());
  const std::size_t flips_per_step = dim_ / (levels_ - 1);
  std::size_t cursor = 0;
  for (std::size_t l = 1; l < levels_; ++l) {
    for (std::size_t k = 0; k < flips_per_step && cursor < dim_; ++k, ++cursor) {
      current[order[cursor]] = static_cast<std::int8_t>(-current[order[cursor]]);
    }
    std::copy(current.begin(), current.end(), levels_hv_.begin() + l * dim_);
  }
}

BipolarHV LinearLevelEncoder::encode(std::span<const float> features) const {
  assert(features.size() == input_dim_);
  AccumHV acc(dim_, 0);
  const float range = hi_ - lo_;
  for (std::size_t f = 0; f < input_dim_; ++f) {
    const float clamped = std::clamp(features[f], lo_, hi_);
    const auto level = std::min<std::size_t>(
        static_cast<std::size_t>((clamped - lo_) / range * (levels_ - 1) + 0.5F),
        levels_ - 1);
    const std::int8_t* id = ids_.data() + f * dim_;
    const std::int8_t* lvl = levels_hv_.data() + level * dim_;
    for (std::size_t i = 0; i < dim_; ++i) acc[i] += id[i] * lvl[i];
  }
  return binarize(acc);
}

// ---------------------------------------------------------------- factories

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, std::size_t input_dim,
                                      std::size_t dim, std::uint64_t seed,
                                      ProjectionMode mode,
                                      std::size_t budget_bytes) {
  switch (kind) {
    case EncoderKind::kRbfDense:
      return std::make_unique<RbfEncoder>(input_dim, dim, seed, 0.0F,
                                          RbfForm::kCosSin, mode,
                                          budget_bytes);
    case EncoderKind::kRbfSparse:
      return std::make_unique<SparseRbfEncoder>(input_dim, dim, seed, 0.8F,
                                                0.0F, mode, budget_bytes);
    case EncoderKind::kLinearLevel:
      return std::make_unique<LinearLevelEncoder>(input_dim, dim, seed);
  }
  throw std::invalid_argument("make_encoder: unknown encoder kind");
}

}  // namespace edgehd::hdc
