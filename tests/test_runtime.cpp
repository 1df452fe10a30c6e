// Tests for the src/runtime execution engine: thread-pool stress, the
// determinism contract of parallel_for / parallel_reduce (bit-identical
// results for any worker count), and the batch overloads threaded through
// the encoder / classifier / EdgeHdSystem stack.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <future>
#include <numeric>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/random.hpp"
#include "hdc/spatial_encoder.hpp"
#include "net/topology.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd;
using runtime::BatchExecutor;
using runtime::ThreadPool;

/// Worker counts every determinism test sweeps, per the issue spec.
constexpr std::size_t kWorkerSweep[] = {1, 2, 8};

TEST(ThreadPool, ResolvesEnvOverride) {
  ASSERT_EQ(setenv("EDGEHD_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_worker_count(), 3u);
  ASSERT_EQ(setenv("EDGEHD_THREADS", "0", 1), 0);  // invalid: non-positive
  EXPECT_GE(ThreadPool::default_worker_count(), 1u);
  ASSERT_EQ(setenv("EDGEHD_THREADS", "junk", 1), 0);
  EXPECT_GE(ThreadPool::default_worker_count(), 1u);
  ASSERT_EQ(setenv("EDGEHD_THREADS", "999999", 1), 0);  // clamps to the cap
  EXPECT_EQ(ThreadPool::default_worker_count(), ThreadPool::kMaxWorkers);
  ASSERT_EQ(unsetenv("EDGEHD_THREADS"), 0);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  constexpr int kTasks = 2000;
  std::atomic<int> ran{0};
  std::promise<void> all_done;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      if (ran.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPool, StressManyWavesOfSmallTasks) {
  ThreadPool pool(8);
  std::atomic<std::size_t> sum{0};
  for (int wave = 0; wave < 50; ++wave) {
    runtime::parallel_for(
        pool, 1000, [&](std::size_t i) { sum.fetch_add(i); }, 7);
  }
  EXPECT_EQ(sum.load(), 50u * (999u * 1000u / 2u));
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(10007, 0);
  runtime::parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(Parallel, FloatReduceIsBitIdenticalAcrossWorkerCounts) {
  // Floating-point addition is not associative, so this only holds because
  // chunk boundaries and combine order are worker-independent.
  hdc::Rng rng(42);
  const auto values = rng.gaussian_vector(50021);
  auto reduce_with = [&](std::size_t workers) {
    ThreadPool pool(workers);
    return runtime::parallel_reduce(
        pool, values.size(), 0.0F,
        [&](std::size_t begin, std::size_t end) {
          float s = 0.0F;
          for (std::size_t i = begin; i < end; ++i) {
            s += std::sin(values[i]) * values[i];
          }
          return s;
        },
        [](float a, float b) { return a + b; });
  };
  const float reference = reduce_with(1);
  for (std::size_t workers : kWorkerSweep) {
    EXPECT_EQ(reduce_with(workers), reference) << workers << " workers";
  }
}

TEST(BatchExecutor, MapPreservesInputOrder) {
  ThreadPool pool(8);
  const BatchExecutor exec(pool);
  const auto out =
      exec.map(5000, [](std::size_t i) { return 3 * i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 3 * i + 1);
  }
}

TEST(BatchExecutor, CountIfMatchesSerial) {
  ThreadPool pool(8);
  const BatchExecutor exec(pool);
  const auto count =
      exec.count_if(10000, [](std::size_t i) { return i % 3 == 0; });
  EXPECT_EQ(count, 3334u);
}

// ---- batch overloads through the hdc stack --------------------------------

std::vector<std::vector<float>> random_batch(std::size_t n, std::size_t dim,
                                             std::uint64_t seed) {
  hdc::Rng rng(seed);
  std::vector<std::vector<float>> out(n);
  for (auto& x : out) x = rng.gaussian_vector(dim);
  return out;
}

TEST(RuntimeDeterminism, EncodeBatchMatchesSerialForAllWorkerCounts) {
  const auto batch = random_batch(64, 20, 7);
  for (auto kind : {hdc::EncoderKind::kRbfDense, hdc::EncoderKind::kRbfSparse,
                    hdc::EncoderKind::kLinearLevel}) {
    const auto enc = hdc::make_encoder(kind, 20, 512, 11);
    std::vector<hdc::BipolarHV> serial;
    for (const auto& x : batch) serial.push_back(enc->encode(x));
    for (std::size_t workers : kWorkerSweep) {
      ThreadPool pool(workers);
      EXPECT_EQ(enc->encode_batch(batch, pool), serial)
          << workers << " workers";
    }
  }
}

TEST(RuntimeDeterminism, SpatialEncodeBatchMatchesSerial) {
  const hdc::SpatialEncoder enc(8, 8, 256, 3);
  const auto batch = random_batch(24, 64, 9);
  std::vector<hdc::PhasorHV> serial;
  for (const auto& img : batch) serial.push_back(enc.encode(img));
  for (std::size_t workers : kWorkerSweep) {
    ThreadPool pool(workers);
    EXPECT_EQ(enc.encode_batch(batch, pool), serial) << workers << " workers";
  }
}

/// Noisy hypervector clusters around per-class prototypes (same
/// construction as the classifier tests).
struct Clusters {
  std::vector<hdc::BipolarHV> hvs;
  std::vector<std::size_t> labels;

  Clusters(std::size_t classes, std::size_t dim, std::size_t per_class,
           double flip, std::uint64_t seed) {
    hdc::Rng rng(seed);
    std::vector<hdc::BipolarHV> prototypes;
    for (std::size_t c = 0; c < classes; ++c) {
      prototypes.push_back(rng.sign_vector(dim));
    }
    for (std::size_t c = 0; c < classes; ++c) {
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

std::vector<hdc::AccumHV> all_accumulators(const hdc::HDClassifier& clf) {
  std::vector<hdc::AccumHV> out;
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    out.push_back(clf.class_accumulator(c));
  }
  return out;
}

TEST(RuntimeDeterminism, TrainBatchMatchesSerialForAllWorkerCounts) {
  const Clusters data(4, 800, 60, 0.35, 21);
  hdc::HDClassifier serial(4, 800);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    serial.add_sample(data.labels[i], data.hvs[i]);
  }
  for (std::size_t workers : kWorkerSweep) {
    ThreadPool pool(workers);
    hdc::HDClassifier clf(4, 800);
    clf.train_batch(data.hvs, data.labels, pool);
    EXPECT_EQ(all_accumulators(clf), all_accumulators(serial))
        << workers << " workers";
  }
}

TEST(RuntimeDeterminism, PredictBatchMatchesSerialForAllWorkerCounts) {
  const Clusters train(3, 600, 40, 0.3, 5);
  const Clusters queries(3, 600, 25, 0.3, 6);
  hdc::HDClassifier clf(3, 600);
  for (std::size_t i = 0; i < train.hvs.size(); ++i) {
    clf.add_sample(train.labels[i], train.hvs[i]);
  }
  std::vector<hdc::Prediction> serial;
  for (const auto& q : queries.hvs) serial.push_back(clf.predict(q));

  for (std::size_t workers : kWorkerSweep) {
    ThreadPool pool(workers);
    const auto batch = clf.predict_batch(queries.hvs, pool);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].label, serial[i].label);
      EXPECT_EQ(batch[i].confidence, serial[i].confidence);
      EXPECT_EQ(batch[i].similarities, serial[i].similarities);
    }
    EXPECT_EQ(clf.accuracy(queries.hvs, queries.labels, pool),
              clf.accuracy(queries.hvs, queries.labels));
  }
}

// ---- EdgeHdSystem batched inference ---------------------------------------

TEST(RuntimeDeterminism, RoutedBatchInferenceMatchesSerialWithExactBytes) {
  auto ds = data::make_synthetic("rt", 24, 3, {6, 6, 6, 6}, 240, 60, 77);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 512;
  cfg.batch_size = 30;
  cfg.retrain_epochs = 3;

  std::vector<std::vector<core::RoutedResult>> per_worker_results;
  for (std::size_t workers : kWorkerSweep) {
    auto worker_cfg = cfg;
    worker_cfg.num_threads = workers;
    core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), worker_cfg);
    ASSERT_EQ(sys.worker_count(), workers);
    sys.train();
    const auto start = sys.topology().leaves().front();

    std::vector<core::RoutedResult> serial;
    for (const auto& x : ds.test_x) serial.push_back(sys.infer_routed(x, start));
    const auto batch = sys.infer_routed_batch(ds.test_x, start);

    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].label, serial[i].label);
      EXPECT_EQ(batch[i].node, serial[i].node);
      EXPECT_EQ(batch[i].level, serial[i].level);
      EXPECT_EQ(batch[i].confidence, serial[i].confidence);
      EXPECT_EQ(batch[i].bytes, serial[i].bytes);
    }
    per_worker_results.push_back(batch);
  }
  // The whole pipeline — parallel encode memoization, parallel accuracy,
  // batched inference — must agree across worker counts, byte counts
  // included.
  for (std::size_t w = 1; w < per_worker_results.size(); ++w) {
    ASSERT_EQ(per_worker_results[w].size(), per_worker_results[0].size());
    for (std::size_t i = 0; i < per_worker_results[w].size(); ++i) {
      EXPECT_EQ(per_worker_results[w][i].label,
                per_worker_results[0][i].label);
      EXPECT_EQ(per_worker_results[w][i].bytes,
                per_worker_results[0][i].bytes);
      EXPECT_EQ(per_worker_results[w][i].confidence,
                per_worker_results[0][i].confidence);
    }
  }
}

TEST(RuntimeDeterminism, TrainingIsWorkerCountInvariant) {
  auto ds = data::make_synthetic("rt2", 16, 2, {8, 8}, 160, 40, 13);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 256;
  cfg.retrain_epochs = 2;

  std::vector<std::vector<hdc::AccumHV>> root_models;
  for (std::size_t workers : kWorkerSweep) {
    auto worker_cfg = cfg;
    worker_cfg.num_threads = workers;
    core::EdgeHdSystem sys(ds, net::Topology::star(2), worker_cfg);
    sys.train();
    root_models.push_back(
        all_accumulators(sys.classifier_at(sys.topology().root())));
  }
  for (std::size_t w = 1; w < root_models.size(); ++w) {
    EXPECT_EQ(root_models[w], root_models[0]);
  }
}

}  // namespace
