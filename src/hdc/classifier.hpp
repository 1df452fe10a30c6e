// Class-hypervector classifier (paper Sections III-B and IV-D).
//
// Training bundles each class's encoded hypervectors into one integer
// accumulator per class ("class hypervector"). Retraining is the paper's
// perceptron-style pass: misclassified samples are added to the correct
// class and subtracted from the wrongly matched class, for a fixed number of
// epochs (20 suffices on every tested dataset, per the paper). Inference is
// nearest class hypervector by cosine similarity; a softmax over the
// similarities gives the confidence level used to route queries through the
// hierarchy. Online learning accumulates negative-feedback queries in
// per-class residual hypervectors that are applied (and propagated) in bulk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hypervector.hpp"
#include "kernels/packed.hpp"
#include "runtime/thread_pool.hpp"

namespace edgehd::hdc {

/// Result of one inference.
struct Prediction {
  std::size_t label = 0;             ///< index of the most similar class
  double confidence = 0.0;           ///< softmax weight of the winning class
  std::vector<double> similarities;  ///< cosine similarity per class
};

/// Tunables for HDClassifier.
struct ClassifierConfig {
  /// Softmax inverse temperature applied to cosine similarities when
  /// computing confidence. Cosine gaps between classes are small in high
  /// dimension, so a sharpening factor makes the confidence threshold
  /// (paper default 0.75) discriminative.
  double softmax_beta = 64.0;
  /// Retraining epochs ("repeating 20 iterations yields sufficient
  /// convergence for all the tested datasets").
  std::size_t retrain_epochs = 20;
};

/// Multi-class classifier over bipolar hypervectors.
class HDClassifier {
 public:
  HDClassifier(std::size_t num_classes, std::size_t dim,
               ClassifierConfig config = {});

  std::size_t num_classes() const noexcept { return classes_.size(); }
  std::size_t dim() const noexcept { return dim_; }
  const ClassifierConfig& config() const noexcept { return config_; }

  // ---- initial training -------------------------------------------------

  /// Bundles one encoded training sample (components -1, 0 or +1) into its
  /// class hypervector; a warm cache entry is updated in place.
  void add_sample(std::size_t label, std::span<const std::int8_t> hv);

  /// Bundles a pre-accumulated hypervector (e.g. a batch hypervector or a
  /// child node's class hypervector) into a class accumulator.
  void add_accumulator(std::size_t label, std::span<const std::int32_t> acc);

  /// Bundles every (hv, label) pair into its class hypervector, fanning
  /// sample chunks over `pool`. Each chunk accumulates into private per-class
  /// partials which are merged into the model in ascending chunk order, so
  /// the result is bit-identical to the serial add_sample loop for any
  /// worker count (integer bundling is exact).
  void train_batch(std::span<const BipolarHV> hvs,
                   std::span<const std::size_t> labels,
                   runtime::ThreadPool& pool);

  // ---- retraining --------------------------------------------------------

  /// One perceptron pass over (hvs, labels): for each misclassified sample,
  /// adds it to the correct class and subtracts it from the predicted one.
  /// Each update takes effect before the next sample is scored. Returns the
  /// number of misclassifications observed during the pass.
  ///
  /// The scan runs on the packed class memory; a mistake's ±1 update is
  /// applied to the two classes' bit planes in place (kernels::planes_add)
  /// and only their norm denominators are recomputed, so no plane rebuild
  /// follows an update. The cache is marked stale once the pass returns.
  /// Components must be -1, 0 or +1, as for predict().
  std::size_t retrain_epoch(std::span<const BipolarHV> hvs,
                            std::span<const std::size_t> labels);

  /// Runs retrain_epoch for config().retrain_epochs passes (or until an
  /// epoch makes no mistakes), packing the samples once for all passes.
  /// Returns errors in the final epoch.
  std::size_t retrain(std::span<const BipolarHV> hvs,
                      std::span<const std::size_t> labels);

  // ---- inference ---------------------------------------------------------
  //
  // Inference runs on packed class memory: each class accumulator is
  // lazily decomposed into two's-complement bit planes (kernels::
  // PackedPlanes) with its norm cached, so a similarity scan is one
  // AND+popcount pass per plane instead of a D-wide multiply-accumulate
  // plus an O(D) norm recompute per query. The exact int64 plane dot equals
  // the historical double accumulation bit-for-bit (every partial sum is an
  // integer below 2^53), so similarities/predictions are unchanged.

  /// Cosine similarity of `query` to every class hypervector.
  std::vector<double> similarities(std::span<const std::int8_t> query) const;

  /// Similarities against a pre-packed query (callers that keep queries
  /// packed — batch predict, memoized test sets — skip the per-call pack).
  std::vector<double> similarities(const kernels::PackedQuery& query) const;

  /// Full prediction with confidence.
  Prediction predict(std::span<const std::int8_t> query) const;

  /// Prediction from a pre-packed query.
  Prediction predict(const kernels::PackedQuery& query) const;

  /// Predicts every query, fanning samples over `pool`. Per-sample work is
  /// the unchanged predict(), so results are bit-identical to the serial
  /// loop for any worker count; output order is input order.
  std::vector<Prediction> predict_batch(std::span<const BipolarHV> queries,
                                        runtime::ThreadPool& pool) const;

  /// Batched prediction over pre-packed queries.
  std::vector<Prediction> predict_batch(
      std::span<const kernels::PackedQuery> queries,
      runtime::ThreadPool& pool) const;

  /// Fraction of (hvs, labels) classified correctly.
  double accuracy(std::span<const BipolarHV> hvs,
                  std::span<const std::size_t> labels) const;

  /// Parallel accuracy: the per-sample checks fan over `pool`; the correct
  /// count reduces in fixed chunk order (integers, so exact). Identical to
  /// the serial accuracy() for any worker count.
  double accuracy(std::span<const BipolarHV> hvs,
                  std::span<const std::size_t> labels,
                  runtime::ThreadPool& pool) const;

  /// Parallel accuracy over pre-packed queries.
  double accuracy(std::span<const kernels::PackedQuery> queries,
                  std::span<const std::size_t> labels,
                  runtime::ThreadPool& pool) const;

  /// Builds every stale per-class cache entry (packed planes + norm) now.
  /// Called internally by every batch entry point before fanning work out;
  /// callers that invoke single-query predict()/similarities() from their
  /// own parallel loops must call this first — lazy rebuilds are not
  /// thread-safe.
  void warm_cache() const;

  // ---- online learning (negative feedback, Section IV-D) -----------------

  /// Records negative feedback: the model predicted `predicted_label` for
  /// `query` and the user rejected it. The query is bundled into the residual
  /// hypervector of the rejected class; nothing changes until residuals are
  /// applied.
  void feedback_negative(std::size_t predicted_label,
                         std::span<const std::int8_t> query);

  /// Applies local residuals (subtracts them from the class hypervectors)
  /// and clears them. Mirrors step (2) of Figure 5b.
  void apply_residuals();

  /// Moves the residual hypervectors out (leaving zeros), for propagation to
  /// the parent node — step (3) of Figure 5b.
  std::vector<AccumHV> take_residuals();

  /// Subtracts externally supplied residuals (e.g. hierarchically encoded
  /// residuals from children) from the class hypervectors.
  void apply_external_residuals(std::span<const AccumHV> residuals);

  /// True if any residual component is non-zero.
  bool has_pending_residuals() const noexcept;

  // ---- model access (hierarchy aggregation, serialization) ---------------

  const AccumHV& class_accumulator(std::size_t label) const;
  void set_class_accumulator(std::size_t label, AccumHV acc);

  // ---- adaptive dimensionality (DESIGN.md §14) ---------------------------

  /// Learner-aware per-dimension discrimination score: the variance across
  /// classes of the norm-scaled component c_i / ||c||. Dimensions whose
  /// components look the same in every class hypervector separate nothing —
  /// DistHD-style regeneration targets the lowest scores.
  std::vector<double> dimension_scores() const;

  /// Indices of the k lowest-scoring dimensions, ascending. Ties break to
  /// the lower index, so the pick is deterministic.
  std::vector<std::uint32_t> worst_dimensions(std::size_t k) const;

  /// Adds deltas[j] to component dims[j] of class `label` (ascending dims).
  /// When the class's packed-plane cache is warm and every new value still
  /// fits the current plane count, the planes are patched in place
  /// (kernels::update_plane_columns) and only the norm denominator is
  /// recomputed — no O(D·nplanes) rebuild; otherwise the cache entry is
  /// invalidated as usual.
  void add_to_dimensions(std::size_t label,
                         std::span<const std::uint32_t> dims,
                         std::span<const std::int32_t> deltas);

  /// Adds another classifier's class hypervectors into this model
  /// (dimension-preserving aggregation, e.g. STAR-topology merging).
  void merge(const HDClassifier& other);

 private:
  void check_label(std::size_t label) const;

  /// Marks one class's packed planes + cached norm stale (any mutation of
  /// classes_[label] must call this or update_cache).
  void invalidate_cache(std::size_t label) noexcept;
  /// Marks every class stale.
  void invalidate_cache() noexcept;
  /// Rebuilds class `c`'s cache entry if stale. Single-threaded only.
  void ensure_cache(std::size_t c) const;

  /// Recomputes class `c`'s similarity denominator from classes_[c].
  void refresh_denom(std::size_t c) const;
  /// After classes_[label] += sign * q (sign = ±1, q given by its sign masks
  /// as in kernels::PackedQuery), brings the entry — which must be warm — up
  /// to date in place.
  void update_cache(std::size_t label, std::span<const std::uint64_t> pos,
                    std::span<const std::uint64_t> neg, int sign);
  /// similarities() of the query with sign masks pos / neg, into caller
  /// storage (one slot per class).
  void similarities_into(std::span<const std::uint64_t> pos,
                         std::span<const std::uint64_t> neg,
                         std::span<double> sims) const;
  /// Up to `max_passes` serial perceptron passes, stopping after a pass with
  /// no mistakes; returns the last pass's mistakes.
  std::size_t retrain_passes(std::span<const BipolarHV> hvs,
                             std::span<const std::size_t> labels,
                             std::size_t max_passes);

  std::size_t dim_;
  ClassifierConfig config_;
  std::vector<AccumHV> classes_;    // one accumulator per class
  std::vector<AccumHV> residuals_;  // online-learning residual per class

  // Lazily rebuilt per-class inference cache: bit-plane packed accumulator
  // and the similarity denominator sqrt(dim) * ||class|| (so similarities()
  // stops recomputing sqrt(dot(c, c)) per query). ±1 bundling (add_sample,
  // a retraining pass) and column patches keep a warm entry exact in place;
  // every other mutator, and the end of a retraining run, marks it stale. `mutable` because warming the cache is
  // observably pure; uint8_t (not vector<bool>) so distinct slots are
  // distinct bytes.
  mutable std::vector<kernels::PackedPlanes> packed_classes_;
  mutable std::vector<double> denoms_;
  mutable std::vector<std::uint8_t> cache_valid_;
};

/// Softmax of `values` scaled by `beta`, returned as probabilities.
std::vector<double> softmax(std::span<const double> values, double beta);

/// HDClassifier::dimension_scores over a bare accumulator set (one AccumHV
/// per class, equal dims) — nodes without a hosted classifier score their
/// own class-accumulator state with the same statistic.
std::vector<double> dimension_scores(std::span<const AccumHV> accums);

/// The k lowest-scoring dimensions of `accums`, ascending, deterministic
/// tie-break to the lower index.
std::vector<std::uint32_t> worst_dimensions(std::span<const AccumHV> accums,
                                            std::size_t k);

}  // namespace edgehd::hdc
