// Hierarchical encoding: aggregating children hypervectors at gateway and
// central nodes (paper Section IV-A, Figure 4).
//
// A parent first concatenates the hypervectors received from its children.
// In *holographic* mode (the paper's proposal) the concatenation is then
// multiplied by a sparse random projection matrix with elements from
// {-1, 0, +1} and re-binarized: the projection mixes every input dimension
// into every output dimension, so feature information is spread
// holographically and the representation tolerates losing a large fraction
// of dimensions in transit (Figure 12). In *concatenation* mode (the
// non-holographic ablation) the concatenation is used as-is.
//
// The projection is linear, so it applies uniformly to bipolar sample
// hypervectors (binarize after), to integer class/batch hypervectors, and to
// residual hypervectors (keep integer) — which is what lets the same
// aggregator serve initial training, retraining and online updates.
//
// Every entry point runs one exact kernel (hdc::kernels ternary_project)
// over a transposed tile of samples: a single query is a one-column tile; a
// class set or a test split is cut into 32-sample tiles whose tiles and
// output-row ranges are split over the pool. Integer sums do not depend on
// their order, so every output is the same for any worker count, tiling or
// kernel backend.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "runtime/thread_pool.hpp"

namespace edgehd::hier {

/// Aggregation mode at internal nodes.
enum class AggregationMode : std::uint8_t {
  kHolographic,    ///< concat + ternary random projection + sign
  kConcatenation,  ///< plain concat (non-holographic ablation)
};

/// One internal node's aggregator: input is the concatenation of its
/// children's hypervectors, output is the node's own hypervector space.
class HierEncoder {
 public:
  /// @param child_dims  dimensionality of each child's hypervectors, in
  ///                    child order; the input dimension is their sum
  /// @param out_dim     this node's dimensionality d_i. In concatenation
  ///                    mode out_dim must equal the sum of child_dims.
  /// @param seed        projection seed (deterministic per node)
  /// @param row_nnz     non-zeros per projection row; each output dimension
  ///                    mixes this many randomly chosen input dimensions
  HierEncoder(std::vector<std::size_t> child_dims, std::size_t out_dim,
              std::uint64_t seed, AggregationMode mode = AggregationMode::kHolographic,
              std::size_t row_nnz = 64);

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept { return out_dim_; }
  AggregationMode mode() const noexcept { return mode_; }
  const std::vector<std::size_t>& child_dims() const noexcept {
    return child_dims_;
  }

  /// Aggregates a concatenated bipolar input into this node's bipolar
  /// hypervector (projection + sign in holographic mode; identity in
  /// concatenation mode). Throws std::invalid_argument unless the input has
  /// in_dim() components.
  hdc::BipolarHV encode(std::span<const std::int8_t> concatenated) const;

  /// Aggregates a concatenated integer accumulator without binarizing
  /// (class hypervectors, batch hypervectors, residuals): each projected sum
  /// is divided by max(1, row_nnz / 8), truncating toward zero. Throws
  /// std::invalid_argument unless the input has in_dim() components.
  hdc::AccumHV project(std::span<const std::int32_t> concatenated) const;

  /// Batch forms. Entry i lists one section per child, in child order; an
  /// empty section is an absent child and reads as zeros. Output i is
  /// exactly encode / project of entry i's concatenation, for any worker
  /// count and kernel backend. The entries are consumed: each entry's
  /// sections are freed as soon as they are copied into the working tile,
  /// and the outputs are allocated on the calling thread a wave at a time,
  /// so peak memory stays near that of the inputs. Tiles of samples and
  /// ranges of output rows are split over `pool`. Throws
  /// std::invalid_argument, before any work, unless every entry has one
  /// section per child, each empty or of that child's dimension.
  std::vector<hdc::BipolarHV> encode_batch(
      std::vector<std::vector<hdc::BipolarHV>> entries,
      runtime::ThreadPool& pool) const;
  std::vector<hdc::AccumHV> project_batch(
      std::vector<std::vector<hdc::AccumHV>> entries,
      runtime::ThreadPool& pool) const;

  /// Batch of one: encode of the children's concatenation (sections as in
  /// encode_batch; an empty one is an absent child).
  hdc::BipolarHV aggregate(std::span<const hdc::BipolarHV> children) const;

  /// Batch of one: project of the children's concatenation.
  hdc::AccumHV aggregate_accum(std::span<const hdc::AccumHV> children) const;

  /// Multiply-accumulates per aggregation (cost-model input): row_nnz per
  /// output dimension in holographic mode, 0 in concatenation mode.
  std::uint64_t macs_per_aggregation() const noexcept;

 private:
  template <typename T>
  void check_sections(std::span<const std::vector<T>> sections) const;
  /// Writes the children's concatenation to dst[0], dst[stride], ...
  template <typename T, typename D>
  void write_sections(std::span<const std::vector<T>> sections, D* dst,
                      std::size_t stride) const;
  /// The one projection path: `write(i, dst, stride)` writes entry i's
  /// concatenated input to dst[0], dst[stride], ... (and may release it);
  /// `finish(sum)` maps a row's exact sum to an output component. `pool`
  /// null runs on the calling thread.
  template <typename Out, typename Write, typename Finish>
  std::vector<Out> run(std::size_t count, Write&& write, Finish&& finish,
                       runtime::ThreadPool* pool) const;

  std::vector<std::size_t> child_dims_;
  std::size_t in_dim_;
  std::size_t out_dim_;
  AggregationMode mode_;
  std::size_t row_nnz_;
  // Sparse ternary projection, row-major: output dim j reads the row_nnz
  // inputs taps_[j * row_nnz ..], the first npos_[j] with sign +1 and the
  // rest with sign -1 (each row's draws, stably partitioned by sign).
  std::vector<std::uint32_t> taps_;
  std::vector<std::uint32_t> npos_;
};

}  // namespace edgehd::hier
