#include "classifier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/parallel.hpp"

namespace edgehd::hdc {

namespace {

/// Index of the most similar class (ties break to the lowest index, exactly
/// as std::max_element does in the serial paths).
std::size_t argmax(std::span<const double> sims) {
  return static_cast<std::size_t>(
      std::max_element(sims.begin(), sims.end()) - sims.begin());
}

struct ClassifierObs {
  obs::Counter predict_queries;
  obs::Counter train_samples;
  obs::Counter retrain_epochs;
  obs::Counter retrain_updates;

  static const ClassifierObs& get() {
    static const ClassifierObs o = [] {
      ClassifierObs c;
      if constexpr (obs::kEnabled) {
        auto& reg = obs::MetricsRegistry::global();
        c.predict_queries = reg.counter("hdc.predict.queries");
        c.train_samples = reg.counter("hdc.train.samples");
        c.retrain_epochs = reg.counter("hdc.retrain.epochs");
        c.retrain_updates = reg.counter("hdc.retrain.updates");
      }
      return c;
    }();
    return o;
  }
};

}  // namespace

std::vector<double> softmax(std::span<const double> values, double beta) {
  std::vector<double> out(values.size());
  if (values.empty()) return out;
  const double max = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = std::exp(beta * (values[i] - max));
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

HDClassifier::HDClassifier(std::size_t num_classes, std::size_t dim,
                           ClassifierConfig config)
    : dim_(dim), config_(config) {
  if (num_classes < 2) {
    throw std::invalid_argument("HDClassifier: need at least two classes");
  }
  if (dim == 0) {
    throw std::invalid_argument("HDClassifier: dimensionality must be positive");
  }
  classes_.assign(num_classes, AccumHV(dim_, 0));
  residuals_.assign(num_classes, AccumHV(dim_, 0));
  packed_classes_.resize(num_classes);
  denoms_.assign(num_classes, 0.0);
  cache_valid_.assign(num_classes, 0);
}

void HDClassifier::check_label(std::size_t label) const {
  if (label >= classes_.size()) {
    throw std::out_of_range("HDClassifier: label out of range");
  }
}

void HDClassifier::invalidate_cache(std::size_t label) noexcept {
  cache_valid_[label] = 0;
}

void HDClassifier::invalidate_cache() noexcept {
  std::fill(cache_valid_.begin(), cache_valid_.end(), std::uint8_t{0});
}

void HDClassifier::refresh_denom(std::size_t c) const {
  // Same denominator the historical per-query cosine computed: na * nb with
  // na = sqrt(dim), nb = ||class||. Recomputed with norm()'s index-ordered
  // double accumulation after every mutation — an incremental sum of squares
  // would not be bit-identical to a cold rebuild.
  denoms_[c] = std::sqrt(static_cast<double>(dim_)) * norm(classes_[c]);
}

void HDClassifier::ensure_cache(std::size_t c) const {
  if (cache_valid_[c] != 0) return;
  packed_classes_[c] = kernels::build_planes(classes_[c]);
  refresh_denom(c);
  cache_valid_[c] = 1;
}

void HDClassifier::update_cache(std::size_t label,
                                std::span<const std::uint64_t> pos,
                                std::span<const std::uint64_t> neg, int sign) {
  assert(cache_valid_[label] != 0);
  kernels::planes_add(packed_classes_[label], pos, neg, sign);
  refresh_denom(label);
}

void HDClassifier::warm_cache() const {
  for (std::size_t c = 0; c < classes_.size(); ++c) ensure_cache(c);
}

void HDClassifier::add_sample(std::size_t label,
                              std::span<const std::int8_t> hv) {
  check_label(label);
  bundle_into(classes_[label], hv);
  if (cache_valid_[label] != 0) {
    const auto q = kernels::pack_query(hv);
    update_cache(label, q.pos, q.neg, 1);
  }
}

void HDClassifier::add_accumulator(std::size_t label,
                                   std::span<const std::int32_t> acc) {
  check_label(label);
  accumulate(classes_[label], acc);
  invalidate_cache(label);
}

void HDClassifier::train_batch(std::span<const BipolarHV> hvs,
                               std::span<const std::size_t> labels,
                               runtime::ThreadPool& pool) {
  assert(hvs.size() == labels.size());
  for (std::size_t l : labels) check_label(l);

  ClassifierObs::get().train_samples.inc(hvs.size());
  const std::size_t k = classes_.size();
  const std::size_t grain = runtime::default_grain(hvs.size());
  const std::size_t chunks = runtime::chunk_count(hvs.size(), grain);

  // One set of per-class partial accumulators per chunk, merged below in
  // ascending chunk order. Integer addition is associative, so this equals
  // the serial add_sample loop bit-for-bit no matter the worker count.
  std::vector<std::vector<AccumHV>> partials(chunks);
  runtime::parallel_for_chunks(
      pool, hvs.size(),
      [&](std::size_t begin, std::size_t end) {
        auto& local = partials[begin / grain];
        local.assign(k, AccumHV(dim_, 0));
        for (std::size_t i = begin; i < end; ++i) {
          bundle_into(local[labels[i]], hvs[i]);
        }
      },
      grain);
  for (const auto& local : partials) {
    for (std::size_t c = 0; c < k; ++c) {
      accumulate(classes_[c], local[c]);
    }
  }
  invalidate_cache();
}

namespace {

/// Retraining samples packed once into two flat mask arrays: sample i's
/// pos / neg masks are words [i * words, (i + 1) * words).
struct PackedSamples {
  std::size_t words = 0;
  std::vector<std::uint64_t> pos;
  std::vector<std::uint64_t> neg;
};

PackedSamples pack_samples(std::span<const BipolarHV> hvs, std::size_t dim) {
  PackedSamples packed;
  packed.words = kernels::packed_words(dim);
  packed.pos.assign(hvs.size() * packed.words, 0);
  packed.neg.assign(hvs.size() * packed.words, 0);
  for (std::size_t i = 0; i < hvs.size(); ++i) {
    if (hvs[i].size() != dim) {
      throw std::invalid_argument("HDClassifier: sample dimension mismatch");
    }
    kernels::active().pack_signs(hvs[i].data(), dim,
                                 packed.pos.data() + i * packed.words,
                                 packed.neg.data() + i * packed.words);
  }
  return packed;
}

}  // namespace

std::size_t HDClassifier::retrain_passes(std::span<const BipolarHV> hvs,
                                         std::span<const std::size_t> labels,
                                         std::size_t max_passes) {
  assert(hvs.size() == labels.size());
  // Samples are scanned every epoch but never change: pack once up front.
  const PackedSamples packed = pack_samples(hvs, dim_);
  const std::span<const std::uint64_t> all_pos(packed.pos);
  const std::span<const std::uint64_t> all_neg(packed.neg);
  std::vector<double> sims(classes_.size());
  // Updates keep the cache warm, so every scan below reads it as is.
  warm_cache();
  std::size_t errors = 0;
  for (std::size_t e = 0; e < max_passes; ++e) {
    ClassifierObs::get().retrain_epochs.inc();
    errors = 0;
    for (std::size_t i = 0; i < hvs.size(); ++i) {
      const auto pos = all_pos.subspan(i * packed.words, packed.words);
      const auto neg = all_neg.subspan(i * packed.words, packed.words);
      similarities_into(pos, neg, sims);
      const std::size_t best = argmax(sims);
      if (best != labels[i]) {
        ++errors;
        bundle_into(classes_[labels[i]], hvs[i]);
        unbundle_from(classes_[best], hvs[i]);
        update_cache(labels[i], pos, neg, 1);
        update_cache(best, pos, neg, -1);
      }
    }
    ClassifierObs::get().retrain_updates.inc(errors);
    if (errors == 0) break;
  }
  // In-place updates only ever add planes, and a component that peaked and
  // fell back leaves its extra planes behind; rebuild once here so inference
  // scans no more planes than a fresh decomposition has.
  invalidate_cache();
  return errors;
}

std::size_t HDClassifier::retrain_epoch(std::span<const BipolarHV> hvs,
                                        std::span<const std::size_t> labels) {
  return retrain_passes(hvs, labels, 1);
}

std::size_t HDClassifier::retrain(std::span<const BipolarHV> hvs,
                                  std::span<const std::size_t> labels) {
  return retrain_passes(hvs, labels, config_.retrain_epochs);
}

void HDClassifier::similarities_into(std::span<const std::uint64_t> pos,
                                     std::span<const std::uint64_t> neg,
                                     std::span<double> sims) const {
  assert(sims.size() == classes_.size());
  const std::size_t words = kernels::packed_words(dim_);
  assert(pos.size() == words && neg.size() == words);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    ensure_cache(c);
    if (denoms_[c] == 0.0) {
      sims[c] = 0.0;
      continue;
    }
    // Exact integer numerator (bit-plane popcount dot); double conversion
    // is exact while dim * max|class| < 2^53, so this equals the historical
    // element-wise double accumulation bit-for-bit.
    const kernels::PackedPlanes& planes = packed_classes_[c];
    const std::int64_t d = kernels::active().planes_dot(
        pos.data(), neg.data(), planes.planes.data(), words, planes.nplanes);
    sims[c] = static_cast<double>(d) / denoms_[c];
  }
}

std::vector<double> HDClassifier::similarities(
    const kernels::PackedQuery& query) const {
  if (query.dim != dim_) {
    throw std::invalid_argument("HDClassifier: query dimension mismatch");
  }
  std::vector<double> sims(classes_.size());
  similarities_into(query.pos, query.neg, sims);
  return sims;
}

std::vector<double> HDClassifier::similarities(
    std::span<const std::int8_t> query) const {
  assert(query.size() == dim_);
  return similarities(kernels::pack_query(query));
}

Prediction HDClassifier::predict(const kernels::PackedQuery& query) const {
  ClassifierObs::get().predict_queries.inc();
  Prediction p;
  p.similarities = similarities(query);
  const auto best = std::max_element(p.similarities.begin(), p.similarities.end());
  p.label = static_cast<std::size_t>(best - p.similarities.begin());
  const auto probs = softmax(p.similarities, config_.softmax_beta);
  p.confidence = probs[p.label];
  return p;
}

Prediction HDClassifier::predict(std::span<const std::int8_t> query) const {
  return predict(kernels::pack_query(query));
}

double HDClassifier::accuracy(std::span<const BipolarHV> hvs,
                              std::span<const std::size_t> labels) const {
  assert(hvs.size() == labels.size());
  if (hvs.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < hvs.size(); ++i) {
    const auto sims = similarities(hvs[i]);
    const auto best = static_cast<std::size_t>(
        std::max_element(sims.begin(), sims.end()) - sims.begin());
    if (best == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(hvs.size());
}

std::vector<Prediction> HDClassifier::predict_batch(
    std::span<const BipolarHV> queries, runtime::ThreadPool& pool) const {
  warm_cache();
  const runtime::BatchExecutor exec(pool);
  return exec.map(queries.size(), [&](std::size_t i) {
    return predict(kernels::pack_query(queries[i]));
  });
}

std::vector<Prediction> HDClassifier::predict_batch(
    std::span<const kernels::PackedQuery> queries,
    runtime::ThreadPool& pool) const {
  warm_cache();
  const runtime::BatchExecutor exec(pool);
  return exec.map(queries.size(),
                  [&](std::size_t i) { return predict(queries[i]); });
}

double HDClassifier::accuracy(std::span<const BipolarHV> hvs,
                              std::span<const std::size_t> labels,
                              runtime::ThreadPool& pool) const {
  assert(hvs.size() == labels.size());
  if (hvs.empty()) return 0.0;
  warm_cache();
  const runtime::BatchExecutor exec(pool);
  const std::size_t correct = exec.count_if(hvs.size(), [&](std::size_t i) {
    return argmax(similarities(kernels::pack_query(hvs[i]))) == labels[i];
  });
  return static_cast<double>(correct) / static_cast<double>(hvs.size());
}

double HDClassifier::accuracy(std::span<const kernels::PackedQuery> queries,
                              std::span<const std::size_t> labels,
                              runtime::ThreadPool& pool) const {
  assert(queries.size() == labels.size());
  if (queries.empty()) return 0.0;
  warm_cache();
  const runtime::BatchExecutor exec(pool);
  const std::size_t correct = exec.count_if(queries.size(), [&](std::size_t i) {
    return argmax(similarities(queries[i])) == labels[i];
  });
  return static_cast<double>(correct) / static_cast<double>(queries.size());
}

void HDClassifier::feedback_negative(std::size_t predicted_label,
                                     std::span<const std::int8_t> query) {
  check_label(predicted_label);
  bundle_into(residuals_[predicted_label], query);
}

void HDClassifier::apply_residuals() {
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    deaccumulate(classes_[c], residuals_[c]);
    std::fill(residuals_[c].begin(), residuals_[c].end(), 0);
  }
  invalidate_cache();
}

std::vector<AccumHV> HDClassifier::take_residuals() {
  std::vector<AccumHV> out = residuals_;
  for (auto& r : residuals_) std::fill(r.begin(), r.end(), 0);
  return out;
}

void HDClassifier::apply_external_residuals(std::span<const AccumHV> residuals) {
  if (residuals.size() != classes_.size()) {
    throw std::invalid_argument(
        "HDClassifier: residual count must equal class count");
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    deaccumulate(classes_[c], residuals[c]);
  }
  invalidate_cache();
}

bool HDClassifier::has_pending_residuals() const noexcept {
  for (const auto& r : residuals_) {
    for (std::int32_t v : r) {
      if (v != 0) return true;
    }
  }
  return false;
}

const AccumHV& HDClassifier::class_accumulator(std::size_t label) const {
  check_label(label);
  return classes_[label];
}

void HDClassifier::set_class_accumulator(std::size_t label, AccumHV acc) {
  check_label(label);
  if (acc.size() != dim_) {
    throw std::invalid_argument("HDClassifier: accumulator dimension mismatch");
  }
  classes_[label] = std::move(acc);
  invalidate_cache(label);
}

std::vector<double> HDClassifier::dimension_scores() const {
  return hdc::dimension_scores(classes_);
}

std::vector<std::uint32_t> HDClassifier::worst_dimensions(std::size_t k) const {
  return hdc::worst_dimensions(classes_, k);
}

void HDClassifier::add_to_dimensions(std::size_t label,
                                     std::span<const std::uint32_t> dims,
                                     std::span<const std::int32_t> deltas) {
  check_label(label);
  if (dims.size() != deltas.size()) {
    throw std::invalid_argument(
        "HDClassifier: dims/deltas length mismatch");
  }
  AccumHV& cls = classes_[label];
  for (std::size_t j = 0; j < dims.size(); ++j) {
    if (dims[j] >= dim_) {
      throw std::out_of_range("HDClassifier: patched dimension out of range");
    }
    cls[dims[j]] += deltas[j];
  }
  if (dims.empty()) return;
  if (cache_valid_[label] != 0) {
    // Try the in-place column patch. New values come from the already
    // updated accumulator so the planes stay an exact decomposition.
    std::vector<std::int32_t> vals(dims.size());
    for (std::size_t j = 0; j < dims.size(); ++j) vals[j] = cls[dims[j]];
    if (kernels::update_plane_columns(packed_classes_[label], dims, vals)) {
      refresh_denom(label);
      return;
    }
  }
  invalidate_cache(label);
}

void HDClassifier::merge(const HDClassifier& other) {
  if (other.num_classes() != num_classes() || other.dim() != dim()) {
    throw std::invalid_argument("HDClassifier: merge shape mismatch");
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    accumulate(classes_[c], other.classes_[c]);
  }
  invalidate_cache();
}

std::vector<double> dimension_scores(std::span<const AccumHV> accums) {
  if (accums.empty()) return {};
  const std::size_t dim = accums[0].size();
  const auto k = static_cast<double>(accums.size());
  std::vector<double> inv_norms(accums.size());
  for (std::size_t c = 0; c < accums.size(); ++c) {
    if (accums[c].size() != dim) {
      throw std::invalid_argument(
          "dimension_scores: accumulator dimension mismatch");
    }
    const double n = norm(accums[c]);
    inv_norms[c] = n == 0.0 ? 0.0 : 1.0 / n;
  }
  std::vector<double> scores(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    double mean = 0.0;
    for (std::size_t c = 0; c < accums.size(); ++c) {
      mean += static_cast<double>(accums[c][i]) * inv_norms[c];
    }
    mean /= k;
    double var = 0.0;
    for (std::size_t c = 0; c < accums.size(); ++c) {
      const double d = static_cast<double>(accums[c][i]) * inv_norms[c] - mean;
      var += d * d;
    }
    scores[i] = var / k;
  }
  return scores;
}

std::vector<std::uint32_t> worst_dimensions(std::span<const AccumHV> accums,
                                            std::size_t k) {
  const std::vector<double> scores = dimension_scores(accums);
  std::vector<std::uint32_t> idx(scores.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
  }
  const std::size_t take = std::min(k, idx.size());
  std::partial_sort(idx.begin(),
                    idx.begin() + static_cast<std::ptrdiff_t>(take), idx.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] < scores[b];
                      return a < b;
                    });
  idx.resize(take);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace edgehd::hdc
