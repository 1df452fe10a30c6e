// Unit + property tests for the feature encoders (src/hdc/encoder.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "hdc/encoder.hpp"
#include "hdc/random.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd::hdc;

TEST(RbfEncoder, ShapesAndDeterminism) {
  RbfEncoder enc(10, 512, 42);
  EXPECT_EQ(enc.dim(), 512u);
  EXPECT_EQ(enc.input_dim(), 10u);
  Rng rng(1);
  const auto x = rng.gaussian_vector(10);
  EXPECT_EQ(enc.encode(x), enc.encode(x));
  RbfEncoder enc2(10, 512, 42);
  EXPECT_EQ(enc.encode(x), enc2.encode(x));  // same seed, same map
}

TEST(RbfEncoder, DifferentSeedsGiveDifferentMaps) {
  RbfEncoder a(10, 512, 1);
  RbfEncoder b(10, 512, 2);
  Rng rng(3);
  const auto x = rng.gaussian_vector(10);
  EXPECT_NE(a.encode(x), b.encode(x));
}

TEST(RbfEncoder, RejectsInvalidArguments) {
  EXPECT_THROW(RbfEncoder(0, 10, 1), std::invalid_argument);
  EXPECT_THROW(RbfEncoder(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(RbfEncoder(10, 10, 1, -1.0F), std::invalid_argument);
}

TEST(RbfEncoder, NearbyInputsEncodeMoreSimilarly) {
  RbfEncoder enc(20, 4096, 5);
  Rng rng(6);
  const auto x = rng.gaussian_vector(20);
  auto near = x;
  near[0] += 0.1F;
  auto far = x;
  for (auto& v : far) v += 2.0F;
  const auto hx = enc.encode(x);
  EXPECT_LT(hamming(hx, enc.encode(near)), hamming(hx, enc.encode(far)));
}

/// Eq. 1-2 property: inner products of the cos-form real encodings converge
/// to the Gaussian RBF kernel as D grows.
class KernelApprox : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelApprox, CosFormApproximatesRbfKernel) {
  const std::size_t d = GetParam();
  const std::size_t n = 8;
  const float w = 2.0F;  // length scale
  RbfEncoder enc(n, d, 9, w, RbfForm::kCos);
  Rng rng(10);
  double worst = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto x = rng.gaussian_vector(n);
    auto y = x;
    for (auto& v : y) v += 0.4F * rng.gaussian();
    double dist2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dist2 += static_cast<double>(x[i] - y[i]) * (x[i] - y[i]);
    }
    const double kernel = std::exp(-dist2 / (2.0 * w * w));
    const auto fx = enc.encode_real(x);
    const auto fy = enc.encode_real(y);
    worst = std::max(worst, std::abs(dot(std::span<const float>(fx),
                                         std::span<const float>(fy)) -
                                     kernel));
  }
  // Monte-Carlo error of the RFF estimate scales ~ 1/sqrt(D).
  EXPECT_LT(worst, 6.0 / std::sqrt(static_cast<double>(d)));
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelApprox,
                         ::testing::Values(1024, 4096, 16384));

TEST(SparseRbfEncoder, WindowMatchesSparsity) {
  SparseRbfEncoder enc(100, 256, 1, 0.8F);
  EXPECT_EQ(enc.nonzeros_per_row(), 20u);
  EXPECT_EQ(enc.macs_per_dim(), 20u);
  SparseRbfEncoder dense_ish(100, 256, 1, 0.0F);
  EXPECT_EQ(dense_ish.nonzeros_per_row(), 100u);
  SparseRbfEncoder extreme(10, 256, 1, 0.99F);
  EXPECT_EQ(extreme.nonzeros_per_row(), 1u);  // floor at one non-zero
}

TEST(SparseRbfEncoder, RejectsInvalidSparsity) {
  EXPECT_THROW(SparseRbfEncoder(10, 10, 1, 1.0F), std::invalid_argument);
  EXPECT_THROW(SparseRbfEncoder(10, 10, 1, -0.1F), std::invalid_argument);
}

TEST(SparseRbfEncoder, DeterministicAndDimCorrect) {
  SparseRbfEncoder enc(30, 333, 7);
  Rng rng(8);
  const auto x = rng.gaussian_vector(30);
  const auto h = enc.encode(x);
  EXPECT_EQ(h.size(), 333u);
  EXPECT_EQ(h, enc.encode(x));
}

TEST(SparseRbfEncoder, PreservesNeighborhoodStructure) {
  SparseRbfEncoder enc(20, 4096, 5);
  Rng rng(6);
  const auto x = rng.gaussian_vector(20);
  auto near = x;
  near[3] += 0.1F;
  auto far = x;
  for (auto& v : far) v -= 1.5F;
  const auto hx = enc.encode(x);
  EXPECT_LT(hamming(hx, enc.encode(near)), hamming(hx, enc.encode(far)));
}

TEST(LinearLevelEncoder, QuantizationIsMonotoneInHamming) {
  LinearLevelEncoder enc(1, 2048, 3, 16, -1.0F, 1.0F);
  const std::vector<float> lo{-1.0F};
  const std::vector<float> mid{0.0F};
  const std::vector<float> hi{1.0F};
  const auto hlo = enc.encode(lo);
  EXPECT_LT(hamming(hlo, enc.encode(mid)), hamming(hlo, enc.encode(hi)));
}

TEST(LinearLevelEncoder, ClampsOutOfRangeValues) {
  LinearLevelEncoder enc(2, 512, 3, 8, -1.0F, 1.0F);
  const std::vector<float> inside{-1.0F, 1.0F};
  const std::vector<float> outside{-50.0F, 50.0F};
  EXPECT_EQ(enc.encode(inside), enc.encode(outside));
}

TEST(LinearLevelEncoder, RejectsInvalidArguments) {
  EXPECT_THROW(LinearLevelEncoder(1, 10, 1, 1), std::invalid_argument);
  EXPECT_THROW(LinearLevelEncoder(1, 10, 1, 8, 2.0F, 1.0F),
               std::invalid_argument);
}

TEST(EncoderFactory, ProducesRequestedKinds) {
  for (const auto kind :
       {EncoderKind::kRbfDense, EncoderKind::kRbfSparse,
        EncoderKind::kLinearLevel}) {
    const auto enc = make_encoder(kind, 12, 128, 1);
    ASSERT_NE(enc, nullptr);
    EXPECT_EQ(enc->dim(), 128u);
    EXPECT_EQ(enc->input_dim(), 12u);
  }
}

// ---- adaptive dimensionality: deterministic projections + regeneration ----

/// The two RFF encoder shapes under test, as (streamed, resident) twins
/// sharing one seed: counter-derived rows at budget 0 and at the default
/// budget. Dim 333 is deliberately not a multiple of the 8-row kernel
/// blocks, so the chunked path exercises a padded tail.
std::vector<std::pair<std::unique_ptr<Encoder>, std::unique_ptr<Encoder>>>
twin_pairs() {
  std::vector<std::pair<std::unique_ptr<Encoder>, std::unique_ptr<Encoder>>> v;
  v.emplace_back(std::make_unique<RbfEncoder>(
                     20, 333, 77, 0.0F, RbfForm::kCosSin,
                     ProjectionMode::kDeterministic, /*budget_bytes=*/0),
                 std::make_unique<RbfEncoder>(20, 333, 77, 0.0F,
                                              RbfForm::kCosSin,
                                              ProjectionMode::kDeterministic));
  v.emplace_back(
      std::make_unique<SparseRbfEncoder>(30, 333, 78, 0.8F, 0.0F,
                                         ProjectionMode::kDeterministic,
                                         /*budget_bytes=*/0),
      std::make_unique<SparseRbfEncoder>(30, 333, 78, 0.8F, 0.0F,
                                         ProjectionMode::kDeterministic));
  for (const auto& [det, mat] : v) {
    EXPECT_EQ(det->projection_resident_bytes(), 0u);
    EXPECT_GT(mat->projection_resident_bytes(), 0u);
  }
  return v;
}

TEST(ProjectionModes, DeterministicIsBitIdenticalToMaterializedTwin) {
  for (const auto& [det, mat] : twin_pairs()) {
    Rng rng(5);
    for (int trial = 0; trial < 4; ++trial) {
      const auto x = rng.gaussian_vector(det->input_dim());
      EXPECT_EQ(det->encode(x), mat->encode(x));
      EXPECT_EQ(det->encode_real(x), mat->encode_real(x));
    }
  }
}

TEST(ProjectionModes, ChunkedBatchesAreBitIdenticalAcrossThreadCounts) {
  // The streamed provider derives row chunks into per-thread scratch; the
  // result must not depend on how samples land on threads, and must equal
  // both the per-sample path and the resident twin.
  for (const auto& [det, mat] : twin_pairs()) {
    Rng rng(6);
    std::vector<std::vector<float>> xs(37);
    for (auto& x : xs) x = rng.gaussian_vector(det->input_dim());
    std::vector<BipolarHV> expect(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) expect[i] = mat->encode(xs[i]);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      edgehd::runtime::ThreadPool pool(workers);
      EXPECT_EQ(det->encode_batch(xs, pool), expect) << "workers=" << workers;
      EXPECT_EQ(mat->encode_batch(xs, pool), expect) << "workers=" << workers;
    }
  }
}

TEST(ProjectionModes, RegenerationStaysBitIdenticalAndBumpsGenerations) {
  const std::vector<std::uint32_t> dims{0, 8, 9, 100, 332};
  for (const auto& [det, mat] : twin_pairs()) {
    Rng rng(7);
    const auto x = rng.gaussian_vector(det->input_dim());
    const auto before = det->encode(x);
    ASSERT_TRUE(det->supports_regeneration());
    det->regenerate_dimensions(dims);
    mat->regenerate_dimensions(dims);
    const auto after = det->encode(x);
    // Same counters on both sides -> still bit-identical twins.
    EXPECT_EQ(after, mat->encode(x));
    for (const auto d : dims) {
      EXPECT_EQ(det->dimension_generation(d), 1u);
      EXPECT_EQ(mat->dimension_generation(d), 1u);
    }
    EXPECT_EQ(det->dimension_generation(1), 0u);
    // Untouched dimensions encode exactly as before; the regenerated set is
    // a fresh draw (with these seeds, visibly so).
    std::size_t changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      const bool regenerated =
          std::find(dims.begin(), dims.end(), i) != dims.end();
      if (!regenerated) {
        EXPECT_EQ(after[i], before[i]) << "dim " << i;
      } else if (after[i] != before[i]) {
        ++changed;
      }
    }
    EXPECT_GT(changed, 0u);
    // A second round moves to generation 2, changes the rows again and
    // keeps the twins bit-identical, batches included.
    det->regenerate_dimensions(dims);
    mat->regenerate_dimensions(dims);
    EXPECT_EQ(det->dimension_generation(dims.front()), 2u);
    EXPECT_EQ(mat->dimension_generation(dims.front()), 2u);
    const auto second = det->encode(x);
    EXPECT_NE(second, after);
    EXPECT_EQ(second, mat->encode(x));
    EXPECT_EQ(det->encode_real(x), mat->encode_real(x));
    std::vector<std::vector<float>> xs(19);
    for (auto& v : xs) v = rng.gaussian_vector(det->input_dim());
    for (const std::size_t workers : {1u, 2u, 8u}) {
      edgehd::runtime::ThreadPool pool(workers);
      EXPECT_EQ(det->encode_batch(xs, pool), mat->encode_batch(xs, pool))
          << "workers=" << workers;
    }
  }
}

TEST(ProjectionModes, EncodeDimsMatchesFullEncodeGather) {
  const std::vector<std::uint32_t> dims{2, 8, 15, 16, 200, 331};
  const std::vector<std::uint32_t> regen{8, 200};
  for (const auto& [det, mat] : twin_pairs()) {
    det->regenerate_dimensions(regen);
    mat->regenerate_dimensions(regen);
    Rng rng(8);
    for (const auto* enc : {det.get(), mat.get()}) {
      const auto x = rng.gaussian_vector(enc->input_dim());
      const auto full = enc->encode(x);
      std::vector<std::int8_t> partial(dims.size());
      enc->encode_dims(x, dims, partial);
      for (std::size_t j = 0; j < dims.size(); ++j) {
        EXPECT_EQ(partial[j], full[dims[j]]) << "dim " << dims[j];
      }
    }
  }
}

TEST(ProjectionModes, DeterministicHoldsNoResidentProjection) {
  RbfEncoder det(16, 512, 9, 0.0F, RbfForm::kCosSin,
                 ProjectionMode::kDeterministic, /*budget_bytes=*/0);
  RbfEncoder sto(16, 512, 9, 0.0F, RbfForm::kCosSin, ProjectionMode::kStored);
  EXPECT_EQ(det.projection_resident_bytes(), 0u);
  EXPECT_GE(sto.projection_resident_bytes(), 512u * 16 * sizeof(float));
  // Regeneration allocates only the 2-byte generation counters.
  det.regenerate_dimensions(std::vector<std::uint32_t>{1});
  EXPECT_EQ(det.projection_resident_bytes(), 512u * sizeof(std::uint16_t));
  // Out-of-range regeneration is rejected.
  EXPECT_THROW(det.regenerate_dimensions(std::vector<std::uint32_t>{512}),
               std::invalid_argument);
}

TEST(ProjectionModes, BudgetBoundarySwitchesResidencyNotEncodings) {
  // Resident bytes of a counter-derived projection: 8-row-padded matrix,
  // one float bias per row and, for the sparse encoder, one u32 window
  // start per row. One byte short of that the rows are streamed.
  const std::vector<std::uint32_t> regen{3, 64, 332};
  const std::size_t gen_bytes = 333 * sizeof(std::uint16_t);
  for (const auto kind : {EncoderKind::kRbfDense, EncoderKind::kRbfSparse}) {
    const bool sparse = kind == EncoderKind::kRbfSparse;
    const std::size_t cols = sparse ? 6 : 30;  // sparse window: 0.2 x 30
    const std::size_t resident =
        336 * cols * sizeof(float) + 333 * sizeof(float) +
        (sparse ? 333 * sizeof(std::uint32_t) : 0);
    std::vector<std::unique_ptr<Encoder>> encs;
    for (const std::size_t budget : {resident - 1, resident, resident + 1}) {
      encs.push_back(make_encoder(kind, 30, 333, 79,
                                  ProjectionMode::kDeterministic, budget));
    }
    EXPECT_EQ(encs[0]->projection_resident_bytes(), 0u);
    EXPECT_EQ(encs[1]->projection_resident_bytes(), resident);
    EXPECT_EQ(encs[2]->projection_resident_bytes(), resident);
    Rng rng(9);
    std::vector<std::vector<float>> xs(11);
    for (auto& x : xs) x = rng.gaussian_vector(30);
    edgehd::runtime::ThreadPool pool(2);
    for (int round = 0; round < 2; ++round) {
      const auto want = encs[0]->encode_batch(xs, pool);
      for (const auto& enc : encs) {
        EXPECT_EQ(enc->encode_batch(xs, pool), want) << "round " << round;
        EXPECT_EQ(enc->encode(xs[0]), want[0]) << "round " << round;
      }
      for (const auto& enc : encs) enc->regenerate_dimensions(regen);
    }
    // Regeneration adds the generation counters on either side of the
    // boundary and never changes residency.
    EXPECT_EQ(encs[0]->projection_resident_bytes(), gen_bytes);
    EXPECT_EQ(encs[1]->projection_resident_bytes(), resident + gen_bytes);
    EXPECT_EQ(encs[2]->projection_resident_bytes(), resident + gen_bytes);
  }
}

TEST(ProjectionModes, LegacyStoredEncodingsAreUnchangedBySeedSplit) {
  // The stored mode must keep drawing the historical mt19937 sequences: an
  // encoder built without a mode argument is the golden-pinned default.
  RbfEncoder legacy(10, 256, 42);
  RbfEncoder stored(10, 256, 42, 0.0F, RbfForm::kCosSin,
                    ProjectionMode::kStored);
  Rng rng(1);
  const auto x = rng.gaussian_vector(10);
  EXPECT_EQ(legacy.encode(x), stored.encode(x));
}

TEST(EncoderFactory, ForwardsProjectionMode) {
  for (const auto kind : {EncoderKind::kRbfDense, EncoderKind::kRbfSparse}) {
    const auto det =
        make_encoder(kind, 12, 128, 1, ProjectionMode::kDeterministic, 0);
    const auto mat =
        make_encoder(kind, 12, 128, 1, ProjectionMode::kDeterministic);
    EXPECT_TRUE(det->supports_regeneration());
    EXPECT_EQ(det->projection_resident_bytes(), 0u);
    EXPECT_GT(mat->projection_resident_bytes(), 0u);
    Rng rng(2);
    const auto x = rng.gaussian_vector(12);
    EXPECT_EQ(det->encode(x), mat->encode(x));
  }
  // The level encoder has no projection to derive; it ignores the mode and
  // reports no regeneration support.
  const auto lvl =
      make_encoder(EncoderKind::kLinearLevel, 12, 128, 1,
                   ProjectionMode::kDeterministic);
  EXPECT_FALSE(lvl->supports_regeneration());
  EXPECT_THROW(lvl->regenerate_dimensions(std::vector<std::uint32_t>{0}),
               std::logic_error);
}

TEST(Encoder, DefaultEncodeRealMatchesBipolar) {
  LinearLevelEncoder enc(4, 64, 1);
  Rng rng(2);
  const auto x = rng.gaussian_vector(4);
  const auto h = enc.encode(x);
  const auto r = enc.encode_real(x);
  ASSERT_EQ(h.size(), r.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(static_cast<float>(h[i]), r[i]);
  }
}

}  // namespace
