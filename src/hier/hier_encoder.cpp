#include "hier_encoder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "hdc/kernels/kernels.hpp"
#include "hdc/random.hpp"
#include "runtime/parallel.hpp"

namespace edgehd::hier {

using hdc::Rng;
using hdc::derive_seed;

HierEncoder::HierEncoder(std::vector<std::size_t> child_dims,
                         std::size_t out_dim, std::uint64_t seed,
                         AggregationMode mode, std::size_t row_nnz)
    : child_dims_(std::move(child_dims)),
      in_dim_(std::accumulate(child_dims_.begin(), child_dims_.end(),
                              std::size_t{0})),
      out_dim_(out_dim),
      mode_(mode),
      row_nnz_(std::min(row_nnz, in_dim_)) {
  if (child_dims_.empty() || in_dim_ == 0 || out_dim_ == 0) {
    throw std::invalid_argument("HierEncoder: empty input or output space");
  }
  if (mode_ == AggregationMode::kConcatenation && out_dim_ != in_dim_) {
    throw std::invalid_argument(
        "HierEncoder: concatenation mode requires out_dim == sum(child_dims)");
  }
  if (mode_ == AggregationMode::kHolographic) {
    if (row_nnz_ == 0) {
      throw std::invalid_argument("HierEncoder: row_nnz must be positive");
    }
    // Draw (index, sign) pairs row by row, then store each row's positive
    // taps first: the same multiset per row, so every sum is unchanged.
    Rng rng(derive_seed(seed, 0));
    taps_.resize(out_dim_ * row_nnz_);
    npos_.resize(out_dim_);
    std::vector<std::uint32_t> neg;
    for (std::size_t j = 0; j < out_dim_; ++j) {
      std::uint32_t* row = taps_.data() + j * row_nnz_;
      std::size_t np = 0;
      neg.clear();
      for (std::size_t t = 0; t < row_nnz_; ++t) {
        const auto idx = static_cast<std::uint32_t>(rng.index(in_dim_));
        if (rng.sign() > 0) {
          row[np++] = idx;
        } else {
          neg.push_back(idx);
        }
      }
      std::copy(neg.begin(), neg.end(), row + np);
      npos_[j] = static_cast<std::uint32_t>(np);
    }
  }
}

namespace {

/// Samples per tile: 32 int64 lanes' worth of columns, so a 4000-input tile
/// is 512 KB.
constexpr std::size_t kTileQ = 32;
/// Output rows per pool task, and per kernel call within a task (the int64
/// sums of one call sit in a 16 x 32 stack buffer).
constexpr std::size_t kRowChunk = 256;
constexpr std::size_t kRowBlock = 16;

/// Runs fn(i) for i in [0, n): over the pool when there is one, else inline.
template <typename Fn>
void for_each(runtime::ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr) {
    runtime::parallel_for(*pool, n, fn, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// Writes x to dst[0], dst[stride], ..., widening each component.
template <typename T, typename D>
void write_strided(std::span<const T> x, D* dst, std::size_t stride) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    dst[i * stride] = static_cast<D>(x[i]);
  }
}

/// encode's output component: the sign of the row sum, 0 counting as +1.
std::int8_t sign_of(std::int64_t sum) {
  return sum < 0 ? std::int8_t{-1} : std::int8_t{1};
}

/// project's output component: the row sum divided by the mixing degree,
/// truncating toward zero, so magnitudes stay comparable to the inputs'
/// (keeps accumulator wire widths and later additions bounded).
struct Rescale {
  std::int64_t divisor;
  std::int32_t operator()(std::int64_t sum) const {
    return static_cast<std::int32_t>(sum / divisor);
  }
};

Rescale rescale_for(std::size_t row_nnz) {
  return {static_cast<std::int64_t>(std::max<std::size_t>(1, row_nnz / 8))};
}

}  // namespace

template <typename T>
void HierEncoder::check_sections(
    std::span<const std::vector<T>> sections) const {
  if (sections.size() != child_dims_.size()) {
    throw std::invalid_argument("HierEncoder: child count mismatch");
  }
  for (std::size_t c = 0; c < sections.size(); ++c) {
    if (!sections[c].empty() && sections[c].size() != child_dims_[c]) {
      throw std::invalid_argument("HierEncoder: child dimension mismatch");
    }
  }
}

template <typename T, typename D>
void HierEncoder::write_sections(std::span<const std::vector<T>> sections,
                                 D* dst, std::size_t stride) const {
  for (std::size_t c = 0; c < sections.size(); ++c) {
    const std::size_t cd = child_dims_[c];
    if (sections[c].empty()) {
      for (std::size_t k = 0; k < cd; ++k) dst[k * stride] = 0;
    } else {
      write_strided(std::span<const T>(sections[c]), dst, stride);
    }
    dst += cd * stride;
  }
}

template <typename Out, typename Write, typename Finish>
std::vector<Out> HierEncoder::run(std::size_t count, Write&& write,
                                  Finish&& finish,
                                  runtime::ThreadPool* pool) const {
  std::vector<Out> out(count);
  if (mode_ == AggregationMode::kConcatenation) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i].resize(in_dim_);
      write(i, out[i].data(), 1);
    }
    return out;
  }
  // Waves of one tile per thread. A wave's outputs and the tiles are
  // allocated here, on the calling thread: pool threads allocate from their
  // own malloc arenas, which never reuse the chunks the consumed inputs
  // free back to this thread's.
  const std::size_t lanes = pool != nullptr ? pool->size() + 1 : 1;
  const std::size_t wave = lanes * kTileQ;
  const std::size_t chunks = (out_dim_ + kRowChunk - 1) / kRowChunk;
  const std::size_t tile_q = std::min(kTileQ, count);
  std::vector<std::vector<std::int32_t>> tiles(
      std::min(lanes, (count + kTileQ - 1) / kTileQ));
  for (auto& tile : tiles) tile.resize(in_dim_ * tile_q);
  const hdc::kernels::KernelTable& k = hdc::kernels::active();
  for (std::size_t w0 = 0; w0 < count; w0 += wave) {
    const std::size_t w1 = std::min(count, w0 + wave);
    const std::size_t ntiles = (w1 - w0 + kTileQ - 1) / kTileQ;
    auto width = [&](std::size_t t) {
      return std::min(kTileQ, w1 - w0 - t * kTileQ);
    };
    for (std::size_t i = w0; i < w1; ++i) out[i].resize(out_dim_);
    // Transpose: tile t holds entries w0 + 32t .. as its columns.
    for_each(pool, ntiles, [&](std::size_t t) {
      const std::size_t q = width(t);
      for (std::size_t j = 0; j < q; ++j) {
        write(w0 + t * kTileQ + j, tiles[t].data() + j, q);
      }
    });
    // Project: one task per (tile, row chunk).
    for_each(pool, ntiles * chunks, [&](std::size_t task) {
      const std::size_t t = task / chunks;
      const std::size_t q = width(t);
      const std::size_t r1 =
          std::min(out_dim_, (task % chunks + 1) * kRowChunk);
      std::int64_t sums[kRowBlock * kTileQ] = {};
      for (std::size_t r0 = (task % chunks) * kRowChunk; r0 < r1;
           r0 += kRowBlock) {
        const std::size_t rows = std::min(kRowBlock, r1 - r0);
        k.ternary_project(taps_.data() + r0 * row_nnz_, npos_.data() + r0,
                          row_nnz_, rows, tiles[t].data(), q, sums);
        for (std::size_t j = 0; j < q; ++j) {
          auto* o = out[w0 + t * kTileQ + j].data() + r0;
          for (std::size_t r = 0; r < rows; ++r) o[r] = finish(sums[r * q + j]);
        }
      }
    });
  }
  return out;
}

hdc::BipolarHV HierEncoder::encode(
    std::span<const std::int8_t> concatenated) const {
  if (concatenated.size() != in_dim_) {
    throw std::invalid_argument("HierEncoder: input dimension mismatch");
  }
  auto write = [&](std::size_t, auto* dst, std::size_t stride) {
    write_strided(concatenated, dst, stride);
  };
  return std::move(run<hdc::BipolarHV>(1, write, sign_of, nullptr)[0]);
}

hdc::AccumHV HierEncoder::project(
    std::span<const std::int32_t> concatenated) const {
  if (concatenated.size() != in_dim_) {
    throw std::invalid_argument("HierEncoder: input dimension mismatch");
  }
  auto write = [&](std::size_t, auto* dst, std::size_t stride) {
    write_strided(concatenated, dst, stride);
  };
  return std::move(run<hdc::AccumHV>(1, write, rescale_for(row_nnz_), nullptr)[0]);
}

std::vector<hdc::BipolarHV> HierEncoder::encode_batch(
    std::vector<std::vector<hdc::BipolarHV>> entries,
    runtime::ThreadPool& pool) const {
  for (const auto& e : entries) check_sections<std::int8_t>(e);
  auto write = [&](std::size_t i, auto* dst, std::size_t stride) {
    write_sections<std::int8_t>(entries[i], dst, stride);
    entries[i] = {};
  };
  return run<hdc::BipolarHV>(entries.size(), write, sign_of, &pool);
}

std::vector<hdc::AccumHV> HierEncoder::project_batch(
    std::vector<std::vector<hdc::AccumHV>> entries,
    runtime::ThreadPool& pool) const {
  for (const auto& e : entries) check_sections<std::int32_t>(e);
  auto write = [&](std::size_t i, auto* dst, std::size_t stride) {
    write_sections<std::int32_t>(entries[i], dst, stride);
    entries[i] = {};
  };
  return run<hdc::AccumHV>(entries.size(), write, rescale_for(row_nnz_), &pool);
}

hdc::BipolarHV HierEncoder::aggregate(
    std::span<const hdc::BipolarHV> children) const {
  check_sections(children);
  auto write = [&](std::size_t, auto* dst, std::size_t stride) {
    write_sections(children, dst, stride);
  };
  return std::move(run<hdc::BipolarHV>(1, write, sign_of, nullptr)[0]);
}

hdc::AccumHV HierEncoder::aggregate_accum(
    std::span<const hdc::AccumHV> children) const {
  check_sections(children);
  auto write = [&](std::size_t, auto* dst, std::size_t stride) {
    write_sections(children, dst, stride);
  };
  return std::move(run<hdc::AccumHV>(1, write, rescale_for(row_nnz_), nullptr)[0]);
}

std::uint64_t HierEncoder::macs_per_aggregation() const noexcept {
  if (mode_ == AggregationMode::kConcatenation) return 0;
  return static_cast<std::uint64_t>(out_dim_) * row_nnz_;
}

}  // namespace edgehd::hier
