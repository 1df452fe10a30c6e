// Unit tests for the hierarchy substrate: dimension allocation and the
// hierarchical (concat + ternary projection) encoder (src/hier/*).
//
// Seed audit: every test constructs its own hdc::Rng with a distinct
// explicit seed (no file-level or shared RNG), so no test's draws depend on
// which other tests ran before it in the same process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "hdc/kernels/kernels.hpp"
#include "hdc/random.hpp"
#include "hier/dim_allocation.hpp"
#include "hier/hier_encoder.hpp"
#include "net/topology.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd;
using namespace edgehd::hier;

// ------------------------------------------------------------ allocation

TEST(DimAllocation, ProportionalToSubtreeFeatures) {
  // paper_tree(4): leaves with features 10, 10, 20, 40 (n = 80).
  const auto topo = net::Topology::paper_tree(4);
  const auto alloc = allocate_dims(topo, {10, 10, 20, 40}, 8000, 1);
  const auto leaves = topo.leaves();
  EXPECT_EQ(alloc.dims[leaves[0]], 1000u);  // 8000 * 10/80
  EXPECT_EQ(alloc.dims[leaves[2]], 2000u);
  EXPECT_EQ(alloc.dims[leaves[3]], 4000u);
  EXPECT_EQ(alloc.dims[topo.root()], 8000u);
  // Gateway over leaves 0 and 1 holds 20 of 80 features.
  const auto gw = topo.parent(leaves[0]);
  EXPECT_EQ(alloc.subtree_features[gw], 20u);
  EXPECT_EQ(alloc.dims[gw], 2000u);
}

TEST(DimAllocation, FloorsTinySlices) {
  const auto topo = net::Topology::star(4);
  const auto alloc = allocate_dims(topo, {1, 1, 1, 97}, 1000, 32);
  const auto leaves = topo.leaves();
  EXPECT_EQ(alloc.dims[leaves[0]], 32u);  // 10 would be below the floor
  EXPECT_EQ(alloc.dims[topo.root()], 1000u);
}

TEST(DimAllocation, ValidatesInputs) {
  const auto topo = net::Topology::star(2);
  EXPECT_THROW(allocate_dims(topo, {1}, 100), std::invalid_argument);
  EXPECT_THROW(allocate_dims(topo, {1, 0}, 100), std::invalid_argument);
  EXPECT_THROW(allocate_dims(topo, {1, 1}, 0), std::invalid_argument);
}

TEST(DimAllocation, DeepTreesPropagateFeatureCounts) {
  const auto topo = net::Topology::uniform_depth(8, 4);
  const auto alloc =
      allocate_dims(topo, std::vector<std::size_t>(8, 5), 4000, 8);
  EXPECT_EQ(alloc.subtree_features[topo.root()], 40u);
  for (std::size_t level = 2; level < topo.depth(); ++level) {
    for (const auto id : topo.nodes_at_level(level)) {
      EXPECT_GT(alloc.subtree_features[id], 0u);
      EXPECT_LE(alloc.dims[id], 4000u);
    }
  }
}

// ------------------------------------------------------------ hier encoder

TEST(HierEncoder, ValidatesConstruction) {
  EXPECT_THROW(HierEncoder({}, 10, 1), std::invalid_argument);
  EXPECT_THROW(HierEncoder({4, 4}, 0, 1), std::invalid_argument);
  // Concatenation mode requires out_dim == sum(child_dims).
  EXPECT_THROW(HierEncoder({4, 4}, 10, 1, AggregationMode::kConcatenation),
               std::invalid_argument);
  EXPECT_NO_THROW(HierEncoder({4, 6}, 10, 1, AggregationMode::kConcatenation));
}

TEST(HierEncoder, ConcatChecksChildShapes) {
  HierEncoder enc({4, 4}, 8, 1, AggregationMode::kConcatenation);
  hdc::Rng rng(1);
  std::vector<hdc::BipolarHV> ok{rng.sign_vector(4), rng.sign_vector(4)};
  EXPECT_EQ(enc.aggregate(ok).size(), 8u);
  std::vector<hdc::BipolarHV> wrong_count{rng.sign_vector(4)};
  EXPECT_THROW(enc.aggregate(wrong_count), std::invalid_argument);
  std::vector<hdc::BipolarHV> wrong_dim{rng.sign_vector(4), rng.sign_vector(5)};
  EXPECT_THROW(enc.aggregate(wrong_dim), std::invalid_argument);
}

TEST(HierEncoder, ConcatenationModeIsIdentity) {
  HierEncoder enc({3, 2}, 5, 1, AggregationMode::kConcatenation);
  const std::vector<hdc::BipolarHV> kids{{1, -1, 1}, {-1, 1}};
  EXPECT_EQ(enc.aggregate(kids), (hdc::BipolarHV{1, -1, 1, -1, 1}));
  EXPECT_EQ(enc.macs_per_aggregation(), 0u);
}

TEST(HierEncoder, HolographicOutputHasRequestedDimAndIsBipolar) {
  HierEncoder enc({100, 100}, 150, 2);
  hdc::Rng rng(3);
  const std::vector<hdc::BipolarHV> kids{rng.sign_vector(100),
                                         rng.sign_vector(100)};
  const auto out = enc.aggregate(kids);
  EXPECT_EQ(out.size(), 150u);
  for (const auto v : out) EXPECT_TRUE(v == 1 || v == -1);
  EXPECT_EQ(enc.macs_per_aggregation(), 150u * 64);
}

TEST(HierEncoder, DeterministicPerSeed) {
  hdc::Rng rng(4);
  const std::vector<hdc::BipolarHV> kids{rng.sign_vector(64),
                                         rng.sign_vector(64)};
  HierEncoder a({64, 64}, 96, 7);
  HierEncoder b({64, 64}, 96, 7);
  HierEncoder c({64, 64}, 96, 8);
  EXPECT_EQ(a.aggregate(kids), b.aggregate(kids));
  EXPECT_NE(a.aggregate(kids), c.aggregate(kids));
}

TEST(HierEncoder, ProjectionIsApproximatelyLinear) {
  // project() rescales with integer division, so additivity holds within
  // one truncation unit per component — the property that makes class-
  // hypervector aggregation consistent with sample-level aggregation.
  HierEncoder enc({32, 32}, 48, 9);
  hdc::Rng rng(10);
  hdc::AccumHV a(64), b(64), sum(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = static_cast<std::int32_t>(rng.index(41)) - 20;
    b[i] = static_cast<std::int32_t>(rng.index(41)) - 20;
    sum[i] = a[i] + b[i];
  }
  const auto pa = enc.project(a);
  const auto pb = enc.project(b);
  const auto ps = enc.project(sum);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_NEAR(ps[i], pa[i] + pb[i], 2) << "component " << i;
  }
}

TEST(HierEncoder, ProjectionPreservesSimilarityStructure) {
  // Nearby inputs stay nearby after holographic aggregation.
  HierEncoder enc({256, 256}, 384, 11);
  hdc::Rng rng(12);
  const auto a = rng.sign_vector(512);
  auto near = a;
  for (std::size_t i = 0; i < 30; ++i) {
    near[i] = static_cast<std::int8_t>(-near[i]);
  }
  const auto far = rng.sign_vector(512);
  const auto pa = enc.encode(a);
  EXPECT_LT(hdc::hamming(pa, enc.encode(near)),
            hdc::hamming(pa, enc.encode(far)));
}

TEST(HierEncoder, HolographicSpreadsInformationAcrossDims) {
  // Zeroing a random 40% of holographic dimensions perturbs similarity far
  // less than losing the same fraction of one child's concat block.
  HierEncoder holo({128, 128}, 256, 13);
  hdc::Rng rng(14);
  const std::vector<hdc::BipolarHV> kids{rng.sign_vector(128),
                                         rng.sign_vector(128)};
  const auto code = holo.aggregate(kids);
  auto damaged = code;
  for (auto& v : damaged) {
    if (rng.bernoulli(0.4)) v = 0;
  }
  // Remaining dimensions still agree with the original nearly everywhere.
  std::size_t agree = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (damaged[i] == 0) continue;
    ++live;
    if (damaged[i] == code[i]) ++agree;
  }
  EXPECT_EQ(agree, live);  // surviving dims are intact...
  EXPECT_GT(live, 100u);   // ...and a solid majority survives
}

// ------------------------------------------------------------ batch kernel

/// The per-sample loops HierEncoder ran before its batch kernel, kept as the
/// reference: the constructor's draws in order, one (index, sign) pair per
/// tap, walked with a multiply per tap.
struct ReferenceProjection {
  std::size_t in_dim;
  std::size_t out_dim;
  std::size_t nnz;
  std::vector<std::uint32_t> idx;
  std::vector<std::int8_t> sgn;

  ReferenceProjection(const std::vector<std::size_t>& child_dims,
                      std::size_t out, std::uint64_t seed, std::size_t row_nnz)
      : in_dim(std::accumulate(child_dims.begin(), child_dims.end(),
                               std::size_t{0})),
        out_dim(out),
        nnz(std::min(row_nnz, in_dim)) {
    hdc::Rng rng(hdc::derive_seed(seed, 0));
    idx.resize(out_dim * nnz);
    sgn.resize(out_dim * nnz);
    for (std::size_t j = 0; j < out_dim * nnz; ++j) {
      idx[j] = static_cast<std::uint32_t>(rng.index(in_dim));
      sgn[j] = rng.sign();
    }
  }

  hdc::BipolarHV encode(std::span<const std::int8_t> x) const {
    hdc::BipolarHV out(out_dim);
    for (std::size_t j = 0; j < out_dim; ++j) {
      std::int32_t acc = 0;
      for (std::size_t t = 0; t < nnz; ++t) {
        acc += sgn[j * nnz + t] * x[idx[j * nnz + t]];
      }
      out[j] = acc < 0 ? std::int8_t{-1} : std::int8_t{1};
    }
    return out;
  }

  hdc::AccumHV project(std::span<const std::int32_t> x) const {
    hdc::AccumHV out(out_dim, 0);
    for (std::size_t j = 0; j < out_dim; ++j) {
      std::int64_t acc = 0;
      for (std::size_t t = 0; t < nnz; ++t) {
        acc += static_cast<std::int64_t>(sgn[j * nnz + t]) *
               x[idx[j * nnz + t]];
      }
      out[j] = static_cast<std::int32_t>(
          acc / static_cast<std::int64_t>(std::max<std::size_t>(1, nnz / 8)));
    }
    return out;
  }
};

/// Concatenates per-child sections, zeros for an empty (absent) one.
template <typename T>
std::vector<T> concat_with_absent(const std::vector<std::vector<T>>& sections,
                                  const std::vector<std::size_t>& dims) {
  std::vector<T> out;
  for (std::size_t c = 0; c < dims.size(); ++c) {
    if (sections[c].empty()) {
      out.insert(out.end(), dims[c], T{0});
    } else {
      out.insert(out.end(), sections[c].begin(), sections[c].end());
    }
  }
  return out;
}

/// Restores the backend that was active when the test started.
struct ActiveBackendGuard {
  bool simd = std::strcmp(hdc::kernels::backend_name(), "scalar") != 0;
  ~ActiveBackendGuard() {
    hdc::kernels::force_backend(simd ? hdc::kernels::Backend::kSimd
                                     : hdc::kernels::Backend::kScalar);
  }
};

/// Batch entries of random int32 sections: about one section in five is
/// absent, and about one value in eight sits within 64 of INT32_MIN or
/// INT32_MAX, so sums overflow int32 and rescaling truncates negatives.
std::vector<std::vector<hdc::AccumHV>> accum_entries(
    const std::vector<std::size_t>& dims, std::size_t q, hdc::Rng& rng) {
  std::vector<std::vector<hdc::AccumHV>> entries(q);
  for (auto& entry : entries) {
    for (const std::size_t d : dims) {
      hdc::AccumHV& sec = entry.emplace_back();
      if (rng.index(5) == 0) continue;
      sec.resize(d);
      for (auto& v : sec) {
        const std::size_t pick = rng.index(8);
        const auto off = static_cast<std::int32_t>(rng.index(64));
        v = pick == 0   ? std::numeric_limits<std::int32_t>::max() - off
            : pick == 1 ? std::numeric_limits<std::int32_t>::min() + off
                        : static_cast<std::int32_t>(rng.index(2001)) - 1000;
      }
    }
  }
  return entries;
}

/// Batch entries of bipolar sections; dead (absent or silenced) children
/// contribute zeros, and a live one has a few zero components.
std::vector<std::vector<hdc::BipolarHV>> bipolar_entries(
    const std::vector<std::size_t>& dims, std::size_t q, hdc::Rng& rng) {
  std::vector<std::vector<hdc::BipolarHV>> entries(q);
  for (auto& entry : entries) {
    for (const std::size_t d : dims) {
      hdc::BipolarHV& sec = entry.emplace_back();
      const std::size_t kind = rng.index(6);
      if (kind == 0) continue;  // absent
      sec = kind == 1 ? hdc::BipolarHV(d, 0) : rng.sign_vector(d);
      for (auto& v : sec) {
        if (rng.index(16) == 0) v = 0;
      }
    }
  }
  return entries;
}

TEST(HierKernel, BatchMatchesPerSampleReference) {
  const ActiveBackendGuard guard;
  runtime::ThreadPool pool1(1), pool2(2), pool8(8);
  runtime::ThreadPool* pools[] = {&pool1, &pool2, &pool8};
  hdc::Rng shapes(71);
  for (int shape = 0; shape < 3; ++shape) {
    // Random child dims and an output dim that is no multiple of the lanes.
    std::vector<std::size_t> dims(1 + shapes.index(3));
    for (auto& d : dims) d = 20 + shapes.index(90);
    const std::size_t in_dim =
        std::accumulate(dims.begin(), dims.end(), std::size_t{0});
    const std::size_t out_dim = 33 + shapes.index(300);
    for (const std::size_t nnz : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{64}, in_dim}) {
      const std::uint64_t seed = 100 + shape * 10 + nnz;
      const HierEncoder enc(dims, out_dim, seed,
                            AggregationMode::kHolographic, nnz);
      const ReferenceProjection ref(dims, out_dim, seed, nnz);
      for (const std::size_t q : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4}, std::size_t{5},
                                  std::size_t{2 * 32 + 5}}) {
        hdc::Rng rng(seed * 131 + q);
        const auto accums = accum_entries(dims, q, rng);
        const auto bipolars = bipolar_entries(dims, q, rng);
        std::vector<hdc::AccumHV> want_p;
        std::vector<hdc::BipolarHV> want_e;
        for (std::size_t i = 0; i < q; ++i) {
          want_p.push_back(ref.project(concat_with_absent(accums[i], dims)));
          want_e.push_back(ref.encode(concat_with_absent(bipolars[i], dims)));
        }
        for (const auto backend :
             {hdc::kernels::Backend::kScalar, hdc::kernels::Backend::kSimd}) {
          if (!hdc::kernels::force_backend(backend)) continue;
          const auto where = ::testing::Message()
                             << "in " << in_dim << " out " << out_dim
                             << " nnz " << nnz << " q " << q << " backend "
                             << hdc::kernels::backend_name();
          for (runtime::ThreadPool* pool : pools) {
            EXPECT_EQ(enc.project_batch(accums, *pool), want_p)
                << where << " workers " << pool->size();
            EXPECT_EQ(enc.encode_batch(bipolars, *pool), want_e)
                << where << " workers " << pool->size();
          }
          // The per-sample forms are the batch-of-one call.
          EXPECT_EQ(enc.aggregate_accum(accums[0]), want_p[0]) << where;
          EXPECT_EQ(enc.aggregate(bipolars[0]), want_e[0]) << where;
          EXPECT_EQ(enc.project(concat_with_absent(accums[0], dims)),
                    want_p[0])
              << where;
          EXPECT_EQ(enc.encode(concat_with_absent(bipolars[0], dims)),
                    want_e[0])
              << where;
        }
      }
    }
  }
}

TEST(HierKernel, ConcatenationBatchIsTheIdentity) {
  const std::vector<std::size_t> dims{5, 9, 3};
  const HierEncoder enc(dims, 17, 1, AggregationMode::kConcatenation);
  runtime::ThreadPool pool(2);
  hdc::Rng rng(72);
  const auto accums = accum_entries(dims, 37, rng);
  const auto bipolars = bipolar_entries(dims, 37, rng);
  const auto projected = enc.project_batch(accums, pool);
  const auto encoded = enc.encode_batch(bipolars, pool);
  ASSERT_EQ(projected.size(), 37u);
  ASSERT_EQ(encoded.size(), 37u);
  for (std::size_t i = 0; i < 37; ++i) {
    EXPECT_EQ(projected[i], concat_with_absent(accums[i], dims)) << i;
    EXPECT_EQ(encoded[i], concat_with_absent(bipolars[i], dims)) << i;
  }
  EXPECT_TRUE(enc.project_batch({}, pool).empty());
}

TEST(HierEncoder, RejectsWrongSizeInputs) {
  // Short and long inputs throw on every entry point (no unchecked read
  // past the end in a release build).
  for (const auto mode :
       {AggregationMode::kHolographic, AggregationMode::kConcatenation}) {
    const HierEncoder enc({6, 4}, 10, 3, mode);
    runtime::ThreadPool pool(1);
    for (const std::size_t n : {std::size_t{0}, std::size_t{9},
                                std::size_t{11}}) {
      EXPECT_THROW(enc.encode(hdc::BipolarHV(n, 1)), std::invalid_argument);
      EXPECT_THROW(enc.project(hdc::AccumHV(n, 1)), std::invalid_argument);
    }
    EXPECT_NO_THROW(enc.encode(hdc::BipolarHV(10, 1)));
    EXPECT_NO_THROW(enc.project(hdc::AccumHV(10, 1)));
    // Batch entries: a section one short or one long, or a child missing or
    // extra, anywhere in the batch.
    const std::vector<std::vector<std::size_t>> bad_shapes{
        {5, 4}, {6, 5}, {6}, {6, 4, 1}};
    for (const auto& shape : bad_shapes) {
      std::vector<std::vector<hdc::AccumHV>> accums(3, {hdc::AccumHV(6, 1),
                                                        hdc::AccumHV(4, 1)});
      std::vector<std::vector<hdc::BipolarHV>> bipolars(
          3, {hdc::BipolarHV(6, 1), hdc::BipolarHV(4, 1)});
      accums[2].clear();
      bipolars[2].clear();
      for (const std::size_t d : shape) {
        accums[2].emplace_back(d, 1);
        bipolars[2].emplace_back(d, 1);
      }
      EXPECT_THROW(enc.project_batch(accums, pool), std::invalid_argument);
      EXPECT_THROW(enc.encode_batch(bipolars, pool), std::invalid_argument);
      EXPECT_THROW(enc.aggregate_accum(accums[2]), std::invalid_argument);
      EXPECT_THROW(enc.aggregate(bipolars[2]), std::invalid_argument);
    }
  }
}

}  // namespace
