// Unit tests for the class-hypervector classifier (src/hdc/classifier.*).
#include <gtest/gtest.h>

#include <tuple>

#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/random.hpp"

namespace {

using namespace edgehd::hdc;

/// Two well-separated clusters in hyperspace, built from prototypes with
/// per-sample bit noise.
struct TwoClusters {
  std::vector<BipolarHV> hvs;
  std::vector<std::size_t> labels;
  std::vector<BipolarHV> prototypes;

  explicit TwoClusters(std::size_t dim, std::size_t per_class,
                       double flip = 0.15, std::uint64_t seed = 1) {
    Rng rng(seed);
    for (int c = 0; c < 2; ++c) prototypes.push_back(rng.sign_vector(dim));
    for (int c = 0; c < 2; ++c) {
      for (std::size_t i = 0; i < per_class; ++i) {
        auto hv = prototypes[c];
        for (auto& v : hv) {
          if (rng.bernoulli(flip)) v = static_cast<std::int8_t>(-v);
        }
        hvs.push_back(std::move(hv));
        labels.push_back(c);
      }
    }
  }
};

TEST(Classifier, RejectsDegenerateShapes) {
  EXPECT_THROW(HDClassifier(1, 100), std::invalid_argument);
  EXPECT_THROW(HDClassifier(2, 0), std::invalid_argument);
}

TEST(Classifier, LearnsSeparableClusters) {
  TwoClusters data(1024, 40);
  HDClassifier clf(2, 1024);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  EXPECT_EQ(clf.accuracy(data.hvs, data.labels), 1.0);
}

TEST(Classifier, RetrainReducesTrainingErrors) {
  // Overlapping clusters: initial bundling misclassifies some samples.
  TwoClusters data(256, 60, 0.42, 3);
  HDClassifier clf(2, 256);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  const std::size_t before = clf.retrain_epoch(data.hvs, data.labels);
  std::size_t after = before;
  for (int e = 0; e < 19 && after > 0; ++e) {
    after = clf.retrain_epoch(data.hvs, data.labels);
  }
  EXPECT_LE(after, before);
}

TEST(Classifier, PredictionReportsValidConfidence) {
  TwoClusters data(512, 20);
  HDClassifier clf(2, 512);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  const auto p = clf.predict(data.hvs.front());
  EXPECT_LT(p.label, 2u);
  EXPECT_GT(p.confidence, 0.0);
  EXPECT_LE(p.confidence, 1.0);
  EXPECT_EQ(p.similarities.size(), 2u);
}

TEST(Classifier, ConfidenceHigherOnCleanSamples) {
  TwoClusters data(2048, 30, 0.1, 5);
  HDClassifier clf(2, 2048);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  // A prototype is maximally clean; a heavily corrupted sample is ambiguous.
  Rng rng(9);
  auto noisy = data.prototypes[0];
  for (auto& v : noisy) {
    if (rng.bernoulli(0.45)) v = static_cast<std::int8_t>(-v);
  }
  EXPECT_GT(clf.predict(data.prototypes[0]).confidence,
            clf.predict(noisy).confidence);
}

TEST(Classifier, SoftmaxIsNormalizedAndOrderPreserving) {
  const std::vector<double> sims{0.1, 0.5, 0.3};
  const auto p = softmax(sims, 10.0);
  double sum = 0.0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(Classifier, NegativeFeedbackAccumulatesInResiduals) {
  HDClassifier clf(2, 64);
  Rng rng(2);
  const auto q = rng.sign_vector(64);
  EXPECT_FALSE(clf.has_pending_residuals());
  clf.feedback_negative(0, q);
  EXPECT_TRUE(clf.has_pending_residuals());
}

TEST(Classifier, ApplyResidualsSubtractsFromModel) {
  HDClassifier clf(2, 8);
  const BipolarHV q(8, 1);
  clf.add_sample(0, q);
  clf.add_sample(0, q);
  clf.feedback_negative(0, q);
  clf.apply_residuals();
  EXPECT_FALSE(clf.has_pending_residuals());
  // Model had +2 per dim, residual removes 1.
  for (const auto v : clf.class_accumulator(0)) EXPECT_EQ(v, 1);
}

TEST(Classifier, TakeResidualsMovesAndClears) {
  HDClassifier clf(2, 8);
  const BipolarHV q(8, 1);
  clf.feedback_negative(1, q);
  const auto res = clf.take_residuals();
  ASSERT_EQ(res.size(), 2u);
  for (const auto v : res[1]) EXPECT_EQ(v, 1);
  EXPECT_FALSE(clf.has_pending_residuals());
}

TEST(Classifier, ExternalResidualsValidateShape) {
  HDClassifier clf(2, 8);
  std::vector<AccumHV> wrong_count(1, AccumHV(8, 0));
  EXPECT_THROW(clf.apply_external_residuals(wrong_count),
               std::invalid_argument);
}

TEST(Classifier, NegativeFeedbackImprovesSubsequentPrediction) {
  // Model biased toward class 0; repeated rejections of class 0 on a query
  // eventually flip the prediction.
  HDClassifier clf(2, 512);
  Rng rng(4);
  const auto proto0 = rng.sign_vector(512);
  const auto proto1 = rng.sign_vector(512);
  for (int i = 0; i < 10; ++i) {
    clf.add_sample(0, proto0);
    clf.add_sample(1, proto1);
  }
  // Query near class 0's prototype but "wrong" per the user.
  auto q = proto0;
  for (std::size_t i = 0; i < 100; ++i) q[i] = proto1[i];
  ASSERT_EQ(clf.predict(q).label, 0u);
  for (int round = 0; round < 30 && clf.predict(q).label == 0; ++round) {
    clf.feedback_negative(0, q);
    clf.apply_residuals();
  }
  EXPECT_EQ(clf.predict(q).label, 1u);
}

TEST(Classifier, MergeAddsAccumulators) {
  HDClassifier a(2, 4);
  HDClassifier b(2, 4);
  const BipolarHV q(4, 1);
  a.add_sample(0, q);
  b.add_sample(0, q);
  a.merge(b);
  for (const auto v : a.class_accumulator(0)) EXPECT_EQ(v, 2);
  HDClassifier c(3, 4);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Classifier, AccumulatorAccessValidates) {
  HDClassifier clf(2, 4);
  EXPECT_THROW(clf.class_accumulator(5), std::out_of_range);
  EXPECT_THROW(clf.set_class_accumulator(0, AccumHV(3, 0)),
               std::invalid_argument);
  clf.set_class_accumulator(0, AccumHV{1, 2, 3, 4});
  EXPECT_EQ(clf.class_accumulator(0), (AccumHV{1, 2, 3, 4}));
}

TEST(Classifier, EncoderPlusClassifierSolvesNonLinearProblem) {
  // XOR in 2-D: linearly inseparable; the RBF encoder makes it separable by
  // a class-hypervector model (the paper's core encoding claim).
  RbfEncoder enc(2, 4096, 11, 1.0F);
  HDClassifier clf(2, 4096);
  Rng rng(12);
  std::vector<BipolarHV> hvs;
  std::vector<std::size_t> labels;
  for (int i = 0; i < 200; ++i) {
    const float x = rng.gaussian();
    const float y = rng.gaussian();
    const std::vector<float> f{x, y};
    hvs.push_back(enc.encode(f));
    labels.push_back((x > 0) == (y > 0) ? 0u : 1u);
  }
  for (std::size_t i = 0; i < hvs.size(); ++i) clf.add_sample(labels[i], hvs[i]);
  clf.retrain(hvs, labels);
  EXPECT_GT(clf.accuracy(hvs, labels), 0.85);
}

// ---- retraining vs a naive reference ----------------------------------------

/// k clusters of noisy copies of k prototypes. Every fifth sample has about
/// a quarter of its components zeroed (tri-state, as degraded operation
/// produces), and every seventh carries the next cluster's label, so no
/// model separates the set and every retraining pass makes updates.
struct KClusters {
  std::vector<BipolarHV> hvs;
  std::vector<std::size_t> labels;

  KClusters(std::size_t k, std::size_t dim, std::size_t per_class, double flip,
            std::uint64_t seed) {
    Rng rng(seed);
    std::vector<BipolarHV> prototypes;
    for (std::size_t c = 0; c < k; ++c) prototypes.push_back(rng.sign_vector(dim));
    for (std::size_t i = 0; i < k * per_class; ++i) {
      auto hv = prototypes[i % k];
      for (auto& v : hv) {
        if (rng.bernoulli(flip)) v = static_cast<std::int8_t>(-v);
        if (i % 5 == 0 && rng.bernoulli(0.25)) v = 0;
      }
      hvs.push_back(std::move(hv));
      labels.push_back(i % 7 == 3 ? (i + 1) % k : i % k);
    }
  }
};

/// The perceptron rule written out directly: dense cosine per sample, no
/// cache, ties to the lowest class index.
std::size_t reference_epoch(std::vector<AccumHV>& classes,
                            const std::vector<BipolarHV>& hvs,
                            const std::vector<std::size_t>& labels) {
  std::size_t errors = 0;
  for (std::size_t i = 0; i < hvs.size(); ++i) {
    std::size_t best = 0;
    double best_sim = cosine(hvs[i], classes[0]);
    for (std::size_t c = 1; c < classes.size(); ++c) {
      const double sim = cosine(hvs[i], classes[c]);
      if (sim > best_sim) {
        best_sim = sim;
        best = c;
      }
    }
    if (best == labels[i]) continue;
    ++errors;
    for (std::size_t j = 0; j < hvs[i].size(); ++j) {
      classes[labels[i]][j] += hvs[i][j];
      classes[best][j] -= hvs[i][j];
    }
  }
  return errors;
}

std::vector<AccumHV> accumulators(const HDClassifier& clf) {
  std::vector<AccumHV> out;
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    out.push_back(clf.class_accumulator(c));
  }
  return out;
}

class RetrainReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RetrainReference, SerialRetrainMatchesNaivePerceptron) {
  const auto [dim, k] = GetParam();
  const KClusters data(k, dim, 40, 0.42, dim * 10 + k);
  HDClassifier clf(k, dim);
  std::vector<AccumHV> ref(k, AccumHV(dim, 0));
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
    for (std::size_t j = 0; j < dim; ++j) ref[data.labels[i]][j] += data.hvs[i][j];
  }
  const HDClassifier untrained = clf;
  const std::vector<AccumHV> ref_untrained = ref;

  // Epoch by epoch: identical error counts and models after every pass.
  std::size_t total_errors = 0;
  for (std::size_t e = 0; e < clf.config().retrain_epochs; ++e) {
    const std::size_t ref_errors = reference_epoch(ref, data.hvs, data.labels);
    ASSERT_EQ(clf.retrain_epoch(data.hvs, data.labels), ref_errors)
        << "epoch " << e;
    ASSERT_EQ(accumulators(clf), ref) << "epoch " << e;
    total_errors += ref_errors;
  }
  EXPECT_GT(total_errors, 0U);  // the reference did update the model

  // retrain() runs the same passes, stopping at the first clean one.
  HDClassifier whole = untrained;
  std::vector<AccumHV> ref_whole = ref_untrained;
  std::size_t ref_final = 0;
  for (std::size_t e = 0; e < whole.config().retrain_epochs; ++e) {
    ref_final = reference_epoch(ref_whole, data.hvs, data.labels);
    if (ref_final == 0) break;
  }
  EXPECT_EQ(whole.retrain(data.hvs, data.labels), ref_final);
  EXPECT_EQ(accumulators(whole), ref_whole);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RetrainReference,
    ::testing::Combine(::testing::Values(std::size_t{77}, std::size_t{333},
                                         std::size_t{1333}),
                       ::testing::Values(std::size_t{3}, std::size_t{5})));

}  // namespace
