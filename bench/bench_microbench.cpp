// Micro-benchmarks (google-benchmark) of the HD primitives the FPGA design
// pipelines (Section V), the FPGA model's own per-operation estimates, the
// runtime layer's batch throughput (samples/sec) across worker counts, and
// the simulator's schedule→dispatch event loop (allocations per event).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "fpga/fpga_model.hpp"
#include "hdc/classifier.hpp"
#include "hdc/compress.hpp"
#include "hdc/encoder.hpp"
#include "hdc/random.hpp"
#include "hier/hier_encoder.hpp"
#include "net/medium.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

// Global allocation odometer for the event-engine benches: the calendar
// queue + InlineFunction core claims an allocation-free steady state, and
// allocs/event is the number that proves it (vs ~1 malloc per scheduled
// std::function in the seed design). Relaxed atomic: negligible overhead
// for the other benches in this binary.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace edgehd;

void BM_EncodeSparse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  hdc::SparseRbfEncoder enc(n, d, 1);
  hdc::Rng rng(2);
  const auto x = rng.gaussian_vector(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EncodeSparse)->Args({75, 4000})->Args({617, 4000})->Args({75, 1000});

void BM_EncodeDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hdc::RbfEncoder enc(n, 4000, 1);
  hdc::Rng rng(2);
  const auto x = rng.gaussian_vector(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(x));
  }
}
BENCHMARK(BM_EncodeDense)->Arg(75)->Arg(617);

void BM_AssociativeSearch(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 4000;
  hdc::HDClassifier clf(k, d);
  hdc::Rng rng(3);
  for (std::size_t c = 0; c < k; ++c) {
    for (int i = 0; i < 32; ++i) clf.add_sample(c, rng.sign_vector(d));
  }
  const auto q = rng.sign_vector(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.predict(q));
  }
}
BENCHMARK(BM_AssociativeSearch)->Arg(2)->Arg(5)->Arg(26);

void BM_Bundle(benchmark::State& state) {
  const std::size_t d = 4000;
  hdc::Rng rng(4);
  const auto hv = rng.sign_vector(d);
  hdc::AccumHV acc(d, 0);
  for (auto _ : state) {
    hdc::bundle_into(acc, hv);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_Bundle);

void BM_HierAggregate(benchmark::State& state) {
  const auto nnz = static_cast<std::size_t>(state.range(0));
  hier::HierEncoder enc({1333, 1333, 1334}, 4000, 5,
                        hier::AggregationMode::kHolographic, nnz);
  hdc::Rng rng(6);
  std::vector<hdc::BipolarHV> kids = {rng.sign_vector(1333),
                                      rng.sign_vector(1333),
                                      rng.sign_vector(1334)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.aggregate(kids));
  }
}
BENCHMARK(BM_HierAggregate)->Arg(16)->Arg(64)->Arg(256);

void BM_Compress(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 4000;
  hdc::HvCompressor comp(d, m, 8);
  hdc::Rng rng(9);
  std::vector<hdc::BipolarHV> batch(m);
  for (auto& hv : batch) hv = rng.sign_vector(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.compress(batch));
  }
}
BENCHMARK(BM_Compress)->Arg(5)->Arg(25)->Arg(100);

// ---- runtime layer: batch throughput vs worker count ----------------------
//
// The synthetic workload of the issue's acceptance bar: encode a batch of
// feature vectors and run batch inference over the encodings. Reported
// items/sec is samples/sec; sweep the worker-count argument to read the
// scaling curve (UseRealTime because the work runs on pool threads).

constexpr std::size_t kBatchSamples = 256;
constexpr std::size_t kBatchFeatures = 75;
constexpr std::size_t kBatchDim = 4000;

std::vector<std::vector<float>> synthetic_batch() {
  hdc::Rng rng(12);
  std::vector<std::vector<float>> xs(kBatchSamples);
  for (auto& x : xs) x = rng.gaussian_vector(kBatchFeatures);
  return xs;
}

void BM_EncodeBatch(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  hdc::SparseRbfEncoder enc(kBatchFeatures, kBatchDim, 1);
  const auto xs = synthetic_batch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode_batch(xs, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSamples));
}
BENCHMARK(BM_EncodeBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_PredictBatch(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const std::size_t k = 26;
  hdc::HDClassifier clf(k, kBatchDim);
  hdc::Rng rng(13);
  for (std::size_t c = 0; c < k; ++c) {
    for (int i = 0; i < 32; ++i) clf.add_sample(c, rng.sign_vector(kBatchDim));
  }
  std::vector<hdc::BipolarHV> queries(kBatchSamples);
  for (auto& q : queries) q = rng.sign_vector(kBatchDim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.predict_batch(queries, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSamples));
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_EncodePredictPipeline(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  hdc::SparseRbfEncoder enc(kBatchFeatures, kBatchDim, 1);
  const std::size_t k = 26;
  hdc::HDClassifier clf(k, kBatchDim);
  hdc::Rng rng(14);
  for (std::size_t c = 0; c < k; ++c) {
    for (int i = 0; i < 32; ++i) clf.add_sample(c, rng.sign_vector(kBatchDim));
  }
  const auto xs = synthetic_batch();
  for (auto _ : state) {
    const auto hvs = enc.encode_batch(xs, pool);
    benchmark::DoNotOptimize(clf.predict_batch(hvs, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSamples));
}
BENCHMARK(BM_EncodePredictPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_TrainBatch(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  hdc::Rng rng(15);
  std::vector<hdc::BipolarHV> hvs(kBatchSamples);
  std::vector<std::size_t> labels(kBatchSamples);
  for (std::size_t i = 0; i < kBatchSamples; ++i) {
    hvs[i] = rng.sign_vector(kBatchDim);
    labels[i] = i % 5;
  }
  for (auto _ : state) {
    hdc::HDClassifier clf(5, kBatchDim);
    clf.train_batch(hvs, labels, pool);
    benchmark::DoNotOptimize(clf.class_accumulator(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSamples));
}
BENCHMARK(BM_TrainBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---- perceptron retraining at the leaf shapes ------------------------------
//
// One serial retrain_epoch over 600 samples at the bench_e2e leaf shapes:
// D = 77, k = 3 (a PECAN house) and D = 1333, k = 5 (a PAMAP2 body part).
// Every iteration retrains a copy of the same bundled model, so each runs the
// same scan and the same updates (reported as updates/epoch). BM_BuildPlanes
// times one full bit-plane rebuild of a class at the same shapes, for
// contrast with the in-place update (kernels::planes_add) a mistake costs.

constexpr std::size_t kRetrainSamples = 600;

struct RetrainSet {
  std::vector<hdc::BipolarHV> hvs;
  std::vector<std::size_t> labels;
  hdc::HDClassifier bundled;

  RetrainSet(std::size_t dim, std::size_t k) : bundled(k, dim) {
    hdc::Rng rng(16);
    std::vector<hdc::BipolarHV> prototypes(k);
    for (auto& p : prototypes) p = rng.sign_vector(dim);
    for (std::size_t i = 0; i < kRetrainSamples; ++i) {
      auto hv = prototypes[i % k];
      for (auto& v : hv) {
        if (rng.bernoulli(0.4)) v = static_cast<std::int8_t>(-v);
      }
      hvs.push_back(std::move(hv));
      // Every fourth sample carries the next cluster's label, so the set is
      // not separable and every epoch makes updates, as on the real leaves.
      labels.push_back(i % 4 == 1 ? (i + 1) % k : i % k);
      bundled.add_sample(labels.back(), hvs.back());
    }
  }
};

void BM_RetrainEpoch(benchmark::State& state) {
  const RetrainSet set(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  std::size_t updates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    hdc::HDClassifier clf = set.bundled;
    state.ResumeTiming();
    updates = clf.retrain_epoch(set.hvs, set.labels);
    benchmark::DoNotOptimize(clf.class_accumulator(0).data());
  }
  state.counters["updates/epoch"] = static_cast<double>(updates);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRetrainSamples));
}
BENCHMARK(BM_RetrainEpoch)->Args({77, 3})->Args({1333, 5});

void BM_BuildPlanes(benchmark::State& state) {
  const RetrainSet set(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  const auto& acc = set.bundled.class_accumulator(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::kernels::build_planes(acc));
  }
}
BENCHMARK(BM_BuildPlanes)->Args({77, 3})->Args({1333, 5});

// ---- event engine: schedule→dispatch micro-loops ---------------------------
//
// Each iteration schedules a burst of events and drains it, so the measured
// unit is one schedule+dispatch round trip. `allocs_per_event` comes from
// the global odometer: after the first iterations grow the queue's pool to
// the burst size, the steady state must stay at ~0. The obs counters
// sim.events.{scheduled,dispatched} and the sim.queue.depth gauge are read
// back from the metrics registry to pin the accounting wiring.

constexpr int kEventBurst = 1024;

void report_event_counters(benchmark::State& state, const net::Simulator& sim,
                           std::uint64_t allocs, std::uint64_t events) {
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(events);
  state.counters["peak_queue_depth"] =
      static_cast<double>(sim.peak_queue_depth());
  if constexpr (obs::kEnabled) {
    const auto& reg = obs::MetricsRegistry::global();
    state.counters["obs_events_scheduled"] =
        static_cast<double>(reg.counter_value("sim.events.scheduled"));
    state.counters["obs_events_dispatched"] =
        static_cast<double>(reg.counter_value("sim.events.dispatched"));
    state.counters["obs_queue_depth"] = reg.gauge_value("sim.queue.depth");
  }
}

void BM_SimScheduleDispatchEmpty(benchmark::State& state) {
  const net::Topology topo = net::Topology::uniform_depth(64, 3);
  net::Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  const std::uint64_t before_events = sim.events_dispatched();
  const std::uint64_t before_allocs =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (int i = 0; i < kEventBurst; ++i) {
      sim.schedule(static_cast<net::SimTime>(i + 1), [] {});
    }
    sim.run();
  }
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_allocs;
  const std::uint64_t events = sim.events_dispatched() - before_events;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  report_event_counters(state, sim, allocs, events);
}
BENCHMARK(BM_SimScheduleDispatchEmpty);

void BM_SimScheduleDispatchCaptureHeavy(benchmark::State& state) {
  const net::Topology topo = net::Topology::uniform_depth(64, 3);
  net::Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  // 136-byte capture — the weight class of the simulator's transfer legs,
  // far beyond std::function's inline window but inside EventFn's.
  std::array<std::uint64_t, 16> payload{};
  payload[7] = 7;
  std::uint64_t sink = 0;
  static_assert(net::Simulator::EventFn::fits_inline<decltype([payload,
                                                               &sink] {
    sink += payload[7];
  })>());
  const std::uint64_t before_events = sim.events_dispatched();
  const std::uint64_t before_allocs =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (int i = 0; i < kEventBurst; ++i) {
      sim.schedule(static_cast<net::SimTime>(i + 1),
                   [payload, &sink] { sink += payload[7]; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_allocs;
  const std::uint64_t events = sim.events_dispatched() - before_events;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  report_event_counters(state, sim, allocs, events);
}
BENCHMARK(BM_SimScheduleDispatchCaptureHeavy);

// The seed design's cost for the identical capture-heavy burst: a binary
// heap of std::function events, which heap-allocates every capture beyond
// its ~16-byte inline window. Kept as the baseline for allocs_per_event.
void BM_StdFunctionHeapCaptureHeavy(benchmark::State& state) {
  struct Event {
    net::SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap;
  heap.reserve(kEventBurst);
  std::array<std::uint64_t, 16> payload{};
  payload[7] = 7;
  std::uint64_t sink = 0;
  std::uint64_t seq = 0;
  std::uint64_t events = 0;
  const std::uint64_t before_allocs =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (int i = 0; i < kEventBurst; ++i) {
      heap.push_back(Event{static_cast<net::SimTime>(i + 1), seq++,
                           [payload, &sink] { sink += payload[7]; }});
      std::push_heap(heap.begin(), heap.end(), Later{});
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), Later{});
      Event ev = std::move(heap.back());
      heap.pop_back();
      ++events;
      ev.fn();
    }
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before_allocs;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(events);
}
BENCHMARK(BM_StdFunctionHeapCaptureHeavy);

void BM_FpgaModelEstimates(benchmark::State& state) {
  for (auto _ : state) {
    const auto model = fpga::central_design(617, 4000, 26);
    benchmark::DoNotOptimize(model.train_sample_cycles());
    benchmark::DoNotOptimize(model.infer_sample_cycles());
    benchmark::DoNotOptimize(model.power_w());
  }
}
BENCHMARK(BM_FpgaModelEstimates);

}  // namespace

BENCHMARK_MAIN();
