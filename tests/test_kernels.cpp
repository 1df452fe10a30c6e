// Bit-identity suite for the compute-kernel layer (src/hdc/kernels).
//
// The dispatch contract says every backend — scalar reference, AVX2, NEON —
// produces bit-identical results, floats included, and that the packed
// representations agree exactly with the int8/int32 scalar algebra. These
// tests enforce both halves:
//   * packed forms vs the unpacked reference (dot, planes, wire bytes),
//     across awkward dimensions (empty, size 1, word boundaries, primes);
//   * in-place plane updates (planes_add) vs a fresh build_planes, across
//     every plane-count boundary up to the int32 extremes;
//   * scalar_table() vs simd_table() on every kernel, bitwise;
//   * the classifier's lazy norm/plane cache vs direct cosine after every
//     mutating entry point;
//   * end-to-end train → retrain → predict equality between
//     force_backend(kScalar) and force_backend(kSimd) across 1/2/8 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/kernels.hpp"
#include "hdc/kernels/packed.hpp"
#include "hdc/random.hpp"
#include "hdc/wire.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd::hdc;
namespace kernels = edgehd::hdc::kernels;

/// Restores the auto-dispatched backend when a test that forces one exits.
struct BackendGuard {
  ~BackendGuard() { kernels::force_backend(kernels::Backend::kSimd); }
};

/// memcmp wrapper that tolerates the n == 0 / nullptr case of empty vectors.
bool bits_equal_f32(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Tri-state query with zeros (the degraded-operation "silence" convention).
std::vector<std::int8_t> tri_state_vector(Rng& rng, std::size_t n) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    const auto r = rng.index(4);
    x = r == 0 ? std::int8_t{0} : (r % 2 != 0 ? std::int8_t{1} : std::int8_t{-1});
  }
  return v;
}

const std::vector<std::size_t> kDims = {0,   1,   2,   63,   64,  65,
                                        100, 127, 128, 1000, 4096};

class KernelDims : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelDims, PackUnpackRoundtrip) {
  Rng rng(11);
  const auto hv = rng.sign_vector(GetParam());
  const auto packed = kernels::pack_hv(hv);
  EXPECT_EQ(packed.dim, GetParam());
  EXPECT_EQ(packed.words.size(), kernels::packed_words(GetParam()));
  EXPECT_EQ(kernels::unpack_hv(packed), hv);
}

TEST_P(KernelDims, PackedBytesMatchWireCodec) {
  Rng rng(12);
  const auto hv = rng.sign_vector(GetParam());
  const auto wire = pack_bipolar(hv);
  const auto packed = kernels::pack_hv(hv);
  std::vector<std::uint8_t> bytes(wire_bytes_bipolar(GetParam()), 0);
  kernels::packed_to_bytes(packed, bytes.data());
  EXPECT_EQ(bytes, wire);
  const auto back = kernels::packed_from_bytes(bytes, GetParam());
  EXPECT_EQ(back.words, packed.words);
}

TEST_P(KernelDims, PackedDotMatchesScalarDot) {
  Rng rng(13);
  const auto a = rng.sign_vector(GetParam());
  const auto b = rng.sign_vector(GetParam());
  EXPECT_EQ(kernels::packed_dot(kernels::pack_hv(a), kernels::pack_hv(b)),
            dot(std::span<const std::int8_t>(a), std::span<const std::int8_t>(b)));
}

TEST_P(KernelDims, PackedHammingMatchesScalarHamming) {
  Rng rng(14);
  const auto a = rng.sign_vector(GetParam());
  const auto b = rng.sign_vector(GetParam());
  EXPECT_DOUBLE_EQ(kernels::packed_hamming(kernels::pack_hv(a), kernels::pack_hv(b)),
                   hamming(a, b));
}

TEST_P(KernelDims, PlanesDotMatchesInt64Reference) {
  Rng rng(15);
  const auto q = tri_state_vector(rng, GetParam());
  AccumHV acc(GetParam());
  for (auto& v : acc) {
    v = static_cast<std::int32_t>(rng.index(2001)) - 1000;
  }
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    expected += static_cast<std::int64_t>(q[i]) * acc[i];
  }
  EXPECT_EQ(kernels::planes_dot(kernels::pack_query(q), kernels::build_planes(acc)),
            expected);
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelDims, ::testing::ValuesIn(kDims));

TEST(Planes, ExtremeMagnitudesUseAllThirtyThreePlanes) {
  // INT32_MIN needs 33-bit two's complement under the wire width rule
  // (sign bit + 32 magnitude bits); the high planes must read the
  // sign-extended bits, not shift past the 32-bit value.
  AccumHV acc = {std::numeric_limits<std::int32_t>::min(),
                 std::numeric_limits<std::int32_t>::max(), -1, 0, 1};
  std::vector<std::int8_t> q = {1, 1, -1, -1, 1};
  const auto planes = kernels::build_planes(acc);
  EXPECT_EQ(planes.nplanes, 33U);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    expected += static_cast<std::int64_t>(q[i]) * acc[i];
  }
  EXPECT_EQ(kernels::planes_dot(kernels::pack_query(q), planes), expected);
}

TEST(Planes, ZeroAccumulatorDotsToZero) {
  AccumHV acc(100, 0);
  Rng rng(16);
  const auto q = rng.sign_vector(100);
  EXPECT_EQ(kernels::planes_dot(kernels::pack_query(q), kernels::build_planes(acc)),
            0);
}

// ---- in-place plane updates (planes_add) ------------------------------------

/// Component i of a packed accumulator, sign-extended from its top plane.
std::int64_t plane_value(const kernels::PackedPlanes& p, std::size_t i) {
  const std::size_t words = kernels::packed_words(p.dim);
  std::uint64_t u = 0;
  for (std::size_t b = 0; b < p.nplanes; ++b) {
    u |= ((p.planes[b * words + i / 64] >> (i % 64)) & 1U) << b;
  }
  const std::uint64_t sign = std::uint64_t{1} << (p.nplanes - 1);
  return static_cast<std::int64_t>(u ^ sign) - static_cast<std::int64_t>(sign);
}

/// Word w of plane b, reading planes above the top one as copies of it.
std::uint64_t plane_word(const kernels::PackedPlanes& p, std::size_t b,
                         std::size_t w) {
  return p.planes[std::min(b, p.nplanes - 1) * kernels::packed_words(p.dim) + w];
}

/// True if every value fits n-bit two's complement.
bool fits_width(std::span<const std::int32_t> acc, std::size_t n) {
  const std::int64_t hi = (std::int64_t{1} << (n - 1)) - 1;
  return std::all_of(acc.begin(), acc.end(), [&](std::int32_t v) {
    return v <= hi && v >= -hi - 1;
  });
}

/// Checks `p` against the accumulator it should now hold: same values, and
/// plane for plane the same sign-extended words as a fresh build_planes, so
/// any planes beyond the rebuild's are sign-extension planes.
void expect_planes_hold(const kernels::PackedPlanes& p,
                        std::span<const std::int32_t> acc, Rng& rng) {
  ASSERT_EQ(p.dim, acc.size());
  ASSERT_GE(p.nplanes, 2U);
  ASSERT_LE(p.nplanes, kernels::kMaxPlanes);
  const std::size_t words = kernels::packed_words(p.dim);
  ASSERT_EQ(p.planes.size(), p.nplanes * words);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    ASSERT_EQ(plane_value(p, i), acc[i]) << "component " << i;
  }
  const auto rebuilt = kernels::build_planes(acc);
  for (std::size_t b = 0; b < std::max(p.nplanes, rebuilt.nplanes); ++b) {
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(plane_word(p, b, w), plane_word(rebuilt, b, w))
          << "plane " << b << " word " << w;
    }
  }
  const auto r = tri_state_vector(rng, acc.size());
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    expected += static_cast<std::int64_t>(r[i]) * acc[i];
  }
  const auto packed_r = kernels::pack_query(r);
  EXPECT_EQ(kernels::planes_dot(packed_r, p), expected);
  EXPECT_EQ(kernels::planes_dot(packed_r, rebuilt), expected);
}

TEST(PlanesAdd, MatchesRebuildAcrossEveryWidthBoundary) {
  BackendGuard guard;
  for (const auto backend : {kernels::Backend::kScalar, kernels::Backend::kSimd}) {
    if (backend == kernels::Backend::kSimd && kernels::simd_table() == nullptr) {
      continue;
    }
    kernels::force_backend(backend);
    Rng rng(18);
    std::size_t growths = 0;
    for (const std::size_t dim : {1U, 63U, 64U, 65U, 130U, 333U}) {
      // m = 0..31 puts components at ±(2^m - 1), the top of the (m + 1)-plane
      // range, for every plane count the int32 range has; m = 32 puts them
      // next to INT32_MIN / INT32_MAX (33 planes).
      for (std::size_t m = 0; m <= 32; ++m) {
        AccumHV acc(dim);
        for (auto& v : acc) {
          const std::int64_t edge =
              m == 32 ? std::int64_t{std::numeric_limits<std::int32_t>::max()} -
                            static_cast<std::int64_t>(rng.index(3))
                      : (std::int64_t{1} << m) - 1;
          const auto r = rng.index(3);
          v = static_cast<std::int32_t>(
              r == 0 ? static_cast<std::int64_t>(rng.index(5)) - 2
                     : (r == 1 ? edge : -edge - (m == 32 ? 1 : 0)));
        }
        auto planes = kernels::build_planes(acc);
        for (int step = 0; step < 8; ++step) {
          auto q = tri_state_vector(rng, dim);
          const int sign = rng.index(2) == 0 ? 1 : -1;
          for (std::size_t i = 0; i < dim; ++i) {
            // Skip components the update would push out of int32.
            const std::int64_t next =
                static_cast<std::int64_t>(acc[i]) + sign * q[i];
            if (next > std::numeric_limits<std::int32_t>::max() ||
                next < std::numeric_limits<std::int32_t>::min()) {
              q[i] = 0;
            } else {
              acc[i] = static_cast<std::int32_t>(next);
            }
          }
          const std::size_t before = planes.nplanes;
          const auto packed = kernels::pack_query(q);
          kernels::planes_add(planes, packed.pos, packed.neg, sign);
          ASSERT_NO_FATAL_FAILURE(expect_planes_hold(planes, acc, rng))
              << "dim " << dim << " m " << m << " step " << step;
          // Growth is one plane at a time, and only when a value needs it.
          if (planes.nplanes != before) {
            ASSERT_EQ(planes.nplanes, before + 1);
            EXPECT_FALSE(fits_width(acc, before));
            ++growths;
          }
        }
      }
    }
    EXPECT_GT(growths, 0U);  // the sweep did cross width boundaries
  }
}

TEST(PlanesAdd, GrowsOnlyWhenAComponentWraps) {
  Rng rng(19);
  // Bottom edge: -2 fits the 2-plane range [-2, 1]; -3 does not.
  AccumHV acc = {-1, 1};
  auto planes = kernels::build_planes(acc);
  ASSERT_EQ(planes.nplanes, 2U);
  const auto first = kernels::pack_query(std::vector<std::int8_t>{1, 0});
  kernels::planes_add(planes, first.pos, first.neg, -1);
  acc[0] = -2;
  EXPECT_EQ(planes.nplanes, 2U);
  expect_planes_hold(planes, acc, rng);
  kernels::planes_add(planes, first.pos, first.neg, -1);
  acc[0] = -3;
  EXPECT_EQ(planes.nplanes, 3U);
  expect_planes_hold(planes, acc, rng);

  // Top edge, wrapping in the middle word: word 0 is already updated and
  // word 2 not yet when the planes grow.
  acc.assign(130, 0);
  acc[5] = -1;
  acc[100] = 1;
  acc[129] = -1;
  planes = kernels::build_planes(acc);
  ASSERT_EQ(planes.nplanes, 2U);
  std::vector<std::int8_t> q(130, 0);
  q[5] = q[100] = q[129] = 1;
  const auto packed = kernels::pack_query(q);
  kernels::planes_add(planes, packed.pos, packed.neg, 1);
  acc[5] = 0;
  acc[100] = 2;
  acc[129] = 0;
  EXPECT_EQ(planes.nplanes, 3U);
  expect_planes_hold(planes, acc, rng);
}

TEST(PlanesAdd, RejectsMismatchedMasksAndBadSign) {
  auto planes = kernels::build_planes(AccumHV(10, 0));
  const auto wide = kernels::pack_query(BipolarHV(65, 1));
  EXPECT_THROW(kernels::planes_add(planes, wide.pos, wide.neg, 1),
               std::invalid_argument);
  const auto q = kernels::pack_query(BipolarHV(10, 1));
  EXPECT_THROW(kernels::planes_add(planes, q.pos, wide.neg, 1),
               std::invalid_argument);
  EXPECT_THROW(kernels::planes_add(planes, q.pos, q.neg, 0), std::invalid_argument);
  EXPECT_THROW(kernels::planes_add(planes, q.pos, q.neg, 2), std::invalid_argument);
}

// ---- scalar vs SIMD table, kernel by kernel --------------------------------

class BackendEquality : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (kernels::simd_table() == nullptr) {
      GTEST_SKIP() << "no SIMD backend in this binary/CPU";
    }
  }
};

TEST_P(BackendEquality, BitKernelsAgree) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t dim = GetParam();
  const std::size_t words = kernels::packed_words(dim);
  Rng rng(21);
  std::vector<std::uint64_t> a(words), b(words);
  for (auto& w : a) w = rng.engine()();
  for (auto& w : b) w = rng.engine()();
  EXPECT_EQ(s.popcount_words(a.data(), words), v.popcount_words(a.data(), words));
  EXPECT_EQ(s.xor_popcount(a.data(), b.data(), words),
            v.xor_popcount(a.data(), b.data(), words));
}

TEST_P(BackendEquality, PackSignsAgree) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t dim = GetParam();
  if (dim == 0) return;
  const std::size_t words = kernels::packed_words(dim);
  Rng rng(22);
  const auto q = tri_state_vector(rng, dim);
  std::vector<std::uint64_t> sp(words), sn(words), vp(words), vn(words);
  s.pack_signs(q.data(), dim, sp.data(), sn.data());
  v.pack_signs(q.data(), dim, vp.data(), vn.data());
  EXPECT_EQ(sp, vp);
  EXPECT_EQ(sn, vn);
  // The neg-mask-less variant too (pack_hv's path).
  s.pack_signs(q.data(), dim, sp.data(), nullptr);
  v.pack_signs(q.data(), dim, vp.data(), nullptr);
  EXPECT_EQ(sp, vp);
}

TEST_P(BackendEquality, PlanesDotAgrees) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t dim = GetParam();
  if (dim == 0) return;
  Rng rng(23);
  const auto q = kernels::pack_query(tri_state_vector(rng, dim));
  AccumHV acc(dim);
  for (auto& x : acc) x = static_cast<std::int32_t>(rng.index(513)) - 256;
  const auto planes = kernels::build_planes(acc);
  EXPECT_EQ(s.planes_dot(q.pos.data(), q.neg.data(), planes.planes.data(),
                         kernels::packed_words(dim), planes.nplanes),
            v.planes_dot(q.pos.data(), q.neg.data(), planes.planes.data(),
                         kernels::packed_words(dim), planes.nplanes));
}

TEST_P(BackendEquality, GemvIsBitIdenticalToScalar) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t rows = GetParam();
  const std::size_t cols = 37;
  Rng rng(24);
  std::vector<float> wm(rows * cols);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  std::vector<float> x(cols);
  for (auto& f : x) f = rng.gaussian();
  std::vector<float> so(rows, 0.0F), vo(rows, 0.0F);
  s.gemv_f32(blocked.data(), rows, cols, x.data(), so.data());
  v.gemv_f32(blocked.data(), rows, cols, x.data(), vo.data());
  // Bitwise comparison: bit identity, not just numeric closeness.
  EXPECT_TRUE(bits_equal_f32(so.data(), vo.data(), rows));
}

TEST_P(BackendEquality, GemmIsBitIdenticalToScalar) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t rows = GetParam();
  const std::size_t cols = 19;
  const std::size_t count = 7;  // exercises the 4-sample block + the tail
  Rng rng(25);
  std::vector<float> wm(rows * cols);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  std::vector<std::vector<float>> xs(count, std::vector<float>(cols));
  for (auto& x : xs) {
    for (auto& f : x) f = rng.gaussian();
  }
  std::vector<std::vector<float>> so(count, std::vector<float>(rows, 0.0F));
  std::vector<std::vector<float>> vo(count, std::vector<float>(rows, 0.0F));
  std::vector<const float*> xp(count);
  std::vector<float*> sp(count), vp(count);
  for (std::size_t i = 0; i < count; ++i) {
    xp[i] = xs[i].data();
    sp[i] = so[i].data();
    vp[i] = vo[i].data();
  }
  s.gemm_f32(blocked.data(), rows, cols, xp.data(), sp.data(), count);
  v.gemm_f32(blocked.data(), rows, cols, xp.data(), vp.data(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(bits_equal_f32(so[i].data(), vo[i].data(), rows));
  }
}

TEST_P(BackendEquality, SparseGemvIsBitIdenticalToScalar) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t rows = GetParam();
  const std::size_t n = 53;
  const std::size_t window = 11;
  Rng rng(26);
  std::vector<float> wm(rows * window);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked =
      kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, window);
  std::vector<std::uint32_t> starts(rows);
  for (auto& st : starts) st = static_cast<std::uint32_t>(rng.index(n));
  std::vector<float> xx(2 * n);
  for (std::size_t i = 0; i < n; ++i) xx[i] = xx[n + i] = rng.gaussian();
  std::vector<float> so(rows, 0.0F), vo(rows, 0.0F);
  s.sparse_gemv_f32(blocked.data(), starts.data(), rows, window, xx.data(), so.data());
  v.sparse_gemv_f32(blocked.data(), starts.data(), rows, window, xx.data(), vo.data());
  EXPECT_TRUE(bits_equal_f32(so.data(), vo.data(), rows));
}

INSTANTIATE_TEST_SUITE_P(Dims, BackendEquality, ::testing::ValuesIn(kDims));

// ---- GEMV vs the plain row-major reference ---------------------------------

TEST(Gemv, MatchesNaiveRowMajorAccumulationBitwise) {
  const std::size_t rows = 101, cols = 29;
  Rng rng(31);
  std::vector<float> wm(rows * cols);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  std::vector<float> x(cols);
  for (auto& f : x) f = rng.gaussian();
  std::vector<float> out(rows, 0.0F);
  kernels::scalar_table().gemv_f32(blocked.data(), rows, cols, x.data(), out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    float acc = 0.0F;  // the historical encoder loop: ascending j, fp32
    for (std::size_t j = 0; j < cols; ++j) acc += wm[r * cols + j] * x[j];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[r]), std::bit_cast<std::uint32_t>(acc))
        << "row " << r;
  }
}

TEST(Gemv, BlockedLayoutZeroPadsTailRows) {
  const std::size_t rows = 13, cols = 3;  // 13 % 8 != 0
  std::vector<float> wm(rows * cols, 1.0F);
  const auto m = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  EXPECT_EQ(m.rows(), rows);
  EXPECT_EQ(m.cols(), cols);
  // Storage covers two full 8-row blocks; rows 13..15 must be zero.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(m.at(r, c), 1.0F);
  }
}

// ---- encoder equivalence across backends and worker counts -----------------

TEST(EncoderKernels, DenseAndSparseEncodersAgreeAcrossBackendsAndWorkers) {
  if (kernels::simd_table() == nullptr) {
    GTEST_SKIP() << "no SIMD backend in this binary/CPU";
  }
  BackendGuard guard;
  const std::size_t n = 17, d = 203, samples = 33;
  Rng rng(41);
  std::vector<std::vector<float>> xs(samples, std::vector<float>(n));
  for (auto& x : xs) {
    for (auto& f : x) f = rng.gaussian();
  }
  const RbfEncoder dense(n, d, 5);
  const SparseRbfEncoder sparse(n, d, 6, 0.7F);

  std::vector<std::vector<BipolarHV>> dense_runs, sparse_runs;
  for (const auto backend : {kernels::Backend::kScalar, kernels::Backend::kSimd}) {
    kernels::force_backend(backend);
    for (const std::size_t workers : {1U, 2U, 8U}) {
      edgehd::runtime::ThreadPool pool(workers);
      dense_runs.push_back(dense.encode_batch(xs, pool));
      sparse_runs.push_back(sparse.encode_batch(xs, pool));
    }
    // The serial single-sample path must agree with the batch too.
    std::vector<BipolarHV> serial(samples);
    for (std::size_t i = 0; i < samples; ++i) serial[i] = dense.encode(xs[i]);
    dense_runs.push_back(std::move(serial));
  }
  for (std::size_t i = 1; i < dense_runs.size(); ++i) {
    EXPECT_EQ(dense_runs[i], dense_runs[0]) << "dense run " << i;
  }
  for (std::size_t i = 1; i < sparse_runs.size(); ++i) {
    EXPECT_EQ(sparse_runs[i], sparse_runs[0]) << "sparse run " << i;
  }
}

TEST(EncoderKernels, EncodeRealIsBitIdenticalAcrossBackends) {
  if (kernels::simd_table() == nullptr) {
    GTEST_SKIP() << "no SIMD backend in this binary/CPU";
  }
  BackendGuard guard;
  const std::size_t n = 23, d = 129;
  Rng rng(42);
  std::vector<float> x(n);
  for (auto& f : x) f = rng.gaussian();
  const RbfEncoder enc(n, d, 5, 0.0F, RbfForm::kCos);
  kernels::force_backend(kernels::Backend::kScalar);
  const RealHV scalar_hv = enc.encode_real(x);
  kernels::force_backend(kernels::Backend::kSimd);
  const RealHV simd_hv = enc.encode_real(x);
  ASSERT_EQ(scalar_hv.size(), simd_hv.size());
  EXPECT_TRUE(bits_equal_f32(scalar_hv.data(), simd_hv.data(), d));
}

// ---- classifier cache correctness ------------------------------------------

double direct_cosine(const HDClassifier& clf, std::size_t c,
                     std::span<const std::int8_t> q) {
  return cosine(q, clf.class_accumulator(c));
}

void expect_sims_match_direct(const HDClassifier& clf,
                              std::span<const std::int8_t> q) {
  const auto sims = clf.similarities(q);
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    EXPECT_EQ(sims[c], direct_cosine(clf, c, q)) << "class " << c;
  }
}

TEST(ClassifierCache, SimilaritiesTrackEveryMutator) {
  const std::size_t dim = 200, k = 3;
  Rng rng(51);
  HDClassifier clf(k, dim);
  const auto q = rng.sign_vector(dim);

  expect_sims_match_direct(clf, q);  // empty model: all-zero classes

  clf.add_sample(0, rng.sign_vector(dim));
  clf.add_sample(1, rng.sign_vector(dim));
  expect_sims_match_direct(clf, q);

  AccumHV acc(dim);
  for (auto& v : acc) v = static_cast<std::int32_t>(rng.index(21)) - 10;
  clf.add_accumulator(2, acc);
  expect_sims_match_direct(clf, q);

  clf.set_class_accumulator(1, acc);
  expect_sims_match_direct(clf, q);

  clf.feedback_negative(0, q);
  clf.apply_residuals();
  expect_sims_match_direct(clf, q);

  std::vector<AccumHV> ext(k, AccumHV(dim, 0));
  ext[2][7] = 5;
  clf.apply_external_residuals(ext);
  expect_sims_match_direct(clf, q);

  HDClassifier other(k, dim);
  other.add_sample(0, rng.sign_vector(dim));
  clf.merge(other);
  expect_sims_match_direct(clf, q);

  // Each check warms the cache. Serial retraining updates it in place
  // during its passes and marks it stale when it returns; add_sample on a
  // warm cache updates it in place.
  edgehd::runtime::ThreadPool pool(2);
  std::vector<BipolarHV> hvs;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < 12; ++i) {
    hvs.push_back(i % 4 == 0 ? tri_state_vector(rng, dim) : rng.sign_vector(dim));
    labels.push_back(i % k);
  }
  clf.train_batch(hvs, labels, pool);
  expect_sims_match_direct(clf, q);
  EXPECT_GT(clf.retrain_epoch(hvs, labels), 0U);  // the pass did update
  expect_sims_match_direct(clf, q);
  clf.retrain(hvs, labels);
  expect_sims_match_direct(clf, q);
  clf.add_sample(1, rng.sign_vector(dim));
  expect_sims_match_direct(clf, q);
  clf.add_sample(2, tri_state_vector(rng, dim));
  expect_sims_match_direct(clf, q);
}

TEST(ClassifierCache, TriStateQueriesMatchDirectCosine) {
  // Zeroed components (Figure-12 erasures) must contribute nothing, exactly
  // like the scalar multiply-accumulate they replace.
  const std::size_t dim = 333, k = 4;
  Rng rng(52);
  HDClassifier clf(k, dim);
  for (std::size_t i = 0; i < 20; ++i) {
    clf.add_sample(i % k, rng.sign_vector(dim));
  }
  const auto q = tri_state_vector(rng, dim);
  expect_sims_match_direct(clf, q);
}

// ---- permute ----------------------------------------------------------------

TEST(Permute, MatchesModuloReference) {
  Rng rng(61);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{100}}) {
    const auto v = rng.sign_vector(n);
    for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, n / 2,
                                    n - 1, n, n + 3}) {
      BipolarHV expected(n);
      for (std::size_t i = 0; i < n; ++i) expected[(i + shift) % n] = v[i];
      EXPECT_EQ(permute(v, shift), expected) << "n=" << n << " shift=" << shift;
    }
  }
  EXPECT_TRUE(permute(std::vector<std::int8_t>{}, 3).empty());
}

// ---- end-to-end: train → predict under both backends ------------------------

struct E2eOutcome {
  std::vector<std::size_t> labels;
  std::vector<double> confidences;
  std::vector<double> sims;
  bool operator==(const E2eOutcome&) const = default;
};

E2eOutcome run_pipeline(std::size_t workers) {
  const std::size_t n = 12, d = 250, k = 3, train_n = 90, test_n = 30;
  Rng data_rng(71);
  std::vector<std::vector<float>> centers(k, std::vector<float>(n));
  for (auto& c : centers) {
    for (auto& f : c) f = 2.0F * data_rng.gaussian();
  }
  auto draw = [&](std::size_t count, std::vector<std::vector<float>>& xs,
                  std::vector<std::size_t>& ys) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = i % k;
      std::vector<float> x(n);
      for (std::size_t j = 0; j < n; ++j) {
        x[j] = centers[c][j] + 0.5F * data_rng.gaussian();
      }
      xs.push_back(std::move(x));
      ys.push_back(c);
    }
  };
  std::vector<std::vector<float>> train_x, test_x;
  std::vector<std::size_t> train_y, test_y;
  draw(train_n, train_x, train_y);
  draw(test_n, test_x, test_y);

  edgehd::runtime::ThreadPool pool(workers);
  const SparseRbfEncoder enc(n, d, 9, 0.5F);
  const auto train_hv = enc.encode_batch(train_x, pool);
  const auto test_hv = enc.encode_batch(test_x, pool);
  HDClassifier clf(k, d);
  clf.train_batch(train_hv, train_y, pool);
  clf.retrain(train_hv, train_y);

  E2eOutcome out;
  for (const auto& pred : clf.predict_batch(test_hv, pool)) {
    out.labels.push_back(pred.label);
    out.confidences.push_back(pred.confidence);
    out.sims.insert(out.sims.end(), pred.similarities.begin(),
                    pred.similarities.end());
  }
  return out;
}

TEST(EndToEnd, ScalarAndSimdBackendsAgreeAcrossWorkerCounts) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::force_backend(kernels::Backend::kScalar));
  const E2eOutcome reference = run_pipeline(1);
  // Sanity: the pipeline actually learns something on separable blobs.
  std::size_t distinct = 1;
  for (std::size_t i = 1; i < reference.labels.size(); ++i) {
    if (reference.labels[i] != reference.labels[0]) ++distinct;
  }
  EXPECT_GT(distinct, 1U);

  for (const auto backend : {kernels::Backend::kScalar, kernels::Backend::kSimd}) {
    if (backend == kernels::Backend::kSimd && kernels::simd_table() == nullptr) {
      continue;
    }
    kernels::force_backend(backend);
    for (const std::size_t workers : {1U, 2U, 8U}) {
      EXPECT_EQ(run_pipeline(workers), reference)
          << "backend=" << (backend == kernels::Backend::kScalar ? "scalar" : "simd")
          << " workers=" << workers;
    }
  }
}

}  // namespace
