// bench_e2e: wall-clock end-to-end benchmark of an EdgeHD deployment.
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--workers <n>] [--out <jsonl>] [--trace-out <json>] [--smoke]
//
// One process runs one workload (README.md has the table and the reasons).
// It draws the workload's inputs from --seed, builds the deployment, times
// the workload's reps for --seconds, probes routed inference on the trained
// system, checks the outputs and prints every metric by name with its unit.
// The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics of
// a traced run. --out appends that object, tagged with workload, seed and a
// machine stanza, to a JSON-lines result set for bench_compare.
//
// Everything is measured from outside the library: spans wrap calls into the
// public facade (core::EdgeHdSystem), the serving engine and each layer's
// public API; counts are the existing obs::MetricsRegistry counters; per-unit
// layer costs are replays of public layer calls at the workload's shapes.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_util.hpp"
#include "core/edgehd.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/random.hpp"
#include "hier/hier_encoder.hpp"
#include "obs/metrics.hpp"
#include "proto/bus.hpp"
#include "proto/envelope.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/engine.hpp"

namespace {

using namespace edgehd;
using Clock = std::chrono::steady_clock;
using net::NodeId;

// ---- fixed settings shared by every workload --------------------------------

constexpr std::size_t kDim = 4000;
constexpr std::size_t kRegenDims = kDim / 20;
/// Rounds (setup, rep, probe passes) per run, at least; more run until the
/// reps have taken --seconds.
constexpr std::size_t kMinRounds = 3;
/// Probe passes over the test split per round: 3 x 2 x 600 = 3600
/// single-query samples, 30 beyond each pass's p95.
constexpr std::size_t kPassesPerRound = 2;
constexpr std::size_t kClientsPerOrigin = 4;
constexpr net::SimTime kThinkTime = 5 * net::kMillisecond;
constexpr double kPoissonHzPerOrigin = 2000.0;
/// Online queries per replayed core.online_serve cost sample.
constexpr std::size_t kOnlineReplayQueries = 300;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank q-quantile (q in (0, 1]) of a sample.
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// FNV-1a over a rep's observable outputs; equal hashes across reps show the
/// rep computed the same thing every time.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const proto::RoutedResult& r) {
    add(static_cast<std::uint64_t>(r.label));
    add(static_cast<std::uint64_t>(r.node));
    add(r.confidence);
    add(r.bytes);
  }
};

bool same_result(const proto::RoutedResult& a, const proto::RoutedResult& b) {
  return a.label == b.label && a.node == b.node && a.level == b.level &&
         std::memcmp(&a.confidence, &b.confidence, sizeof a.confidence) == 0 &&
         a.bytes == b.bytes && a.degraded == b.degraded &&
         a.retry_bytes == b.retry_bytes;
}

// ---- workloads ----------------------------------------------------------------

enum class Kind : std::uint8_t { kTrain, kOnline, kServe };

struct Workload {
  const char* name;
  Kind kind;
  data::DatasetId dataset;
  std::size_t train_cap;
  std::size_t test_cap;
  double threshold;            ///< routed-inference confidence threshold
  std::size_t stream_queries;  ///< online_serve calls, or queries per Engine::run
  std::size_t propagate_every; ///< online: queries between residual propagations
  bool closed_loop;            ///< serve: think-time clients, else open-loop Poisson
};

constexpr Workload kWorkloads[] = {
    {"train-pamap2", Kind::kTrain, data::DatasetId::kPamap2, 2000, 600, 0.75,
     0, 0, false},
    {"online-pecan", Kind::kOnline, data::DatasetId::kPecan, 1000, 600, 0.75,
     1500, 300, false},
    {"serve-local", Kind::kServe, data::DatasetId::kPamap2, 2000, 600, 0.3,
     16000, 0, true},
    {"serve-escalate", Kind::kServe, data::DatasetId::kPamap2, 2000, 600,
     0.75, 3000, 0, false},
};

/// The same workload at ctest size: every code path and check, in seconds.
Workload smoke_size(Workload w) {
  w.train_cap = 300;
  w.test_cap = 120;
  w.stream_queries = std::max<std::size_t>(1, w.stream_queries / 8);
  w.propagate_every = std::max<std::size_t>(1, w.propagate_every / 3);
  return w;
}

// ---- phases and counters --------------------------------------------------------

/// Bench-side phases: each wraps one kind of facade call. Within a rep they
/// partition the rep's wall time together with the bench's own glue.
enum Phase : std::size_t {
  kTrainInitial,
  kRetrainBatches,
  kRegenerate,
  kAccuracySweep,
  kServeRun,
  kOnlineServe,
  kPropagate,
  kInferRoutedBatch,
  kPhaseCount
};

constexpr const char* kPhaseNames[kPhaseCount] = {
    "train_initial", "retrain_batches",     "regenerate_dimensions",
    "accuracy_sweep", "serve_run",          "online_serve",
    "propagate_residuals", "infer_routed_batch"};

/// Registry counters read around traced phases (obs::MetricsRegistry names).
constexpr const char* kCounterNames[] = {
    "hdc.encode.batches",
    "hdc.encode.batch_samples",
    "hdc.retrain.updates",
    "hdc.retrain.epochs",
    "hdc.train.samples",
    "hdc.predict.queries",
    "proto.model_update.messages",
    "proto.model_update.bytes",
    "proto.batch_update.messages",
    "proto.batch_update.bytes",
    "proto.residual_merge.messages",
    "proto.residual_merge.bytes",
    "proto.dimension_patch.messages",
    "proto.dimension_patch.bytes",
    "proto.query_escalate.messages",
    "proto.query_escalate.bytes",
    "proto.query_reply.messages",
    "proto.query_reply.bytes",
    "serve.batches",
    "runtime.pool.tasks",
    "runtime.pool.steals",
};
constexpr std::size_t kNumCounters = std::size(kCounterNames);
/// Extra slot after the counters: the hdc.encode.batch_ns histogram sum.
constexpr std::size_t kEncodeBusyNs = kNumCounters;

enum Ctr : std::size_t {
  kEncBatches,
  kEncSamples,
  kRetrainUpdates,
  kRetrainEpochs,
  kTrainSamples,
  kPredictQueries,
  kProtoFirst,  ///< six (messages, bytes) pairs follow
  kServeBatches = kProtoFirst + 12,
  kPoolTasks,
  kPoolSteals,
};
constexpr std::array<std::size_t, 4> kTrainingBytes = {
    kProtoFirst + 1, kProtoFirst + 3, kProtoFirst + 5, kProtoFirst + 7};

using Counts = std::array<double, kNumCounters + 1>;

Counts read_counters() {
  Counts c{};
  auto& reg = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    c[i] = static_cast<double>(reg.counter_value(kCounterNames[i]));
  }
  c[kEncodeBusyNs] =
      static_cast<double>(reg.find_histogram("hdc.encode.batch_ns").sum());
  return c;
}

/// Bench-side spans kept in memory and written once as Chrome trace-event
/// JSON (Perfetto opens it). An inactive log records nothing.
class SpanLog {
 public:
  bool active() const noexcept { return active_; }
  void set_active(bool on) noexcept { active_ = on; }

  void add(const std::string& name, Clock::time_point begin,
           Clock::time_point end, std::string args = {}) {
    if (!active_) return;
    events_.push_back({name, us(begin), us(end) - us(begin), std::move(args)});
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {%s}}%s\n",
                   e.name.c_str(), e.ts_us, e.dur_us, e.args.c_str(),
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  std::size_t size() const noexcept { return events_.size(); }

 private:
  struct Event {
    std::string name;
    double ts_us;
    double dur_us;
    std::string args;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
  bool active_ = false;
};

/// Wall time per phase of one rep (always), plus the registry counter deltas
/// each phase produced and the encode_all calls the bench knows it causes
/// (traced reps only; used for attribution).
struct PhaseRecord {
  bool traced = false;
  double wall_s = 0.0;
  std::array<double, kPhaseCount> seconds{};
  std::array<Counts, kPhaseCount> counts{};
  std::array<double, kPhaseCount> encode_all_calls{};
};

std::string counter_args(const Counts& delta) {
  std::string args;
  char buf[96];
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (delta[i] == 0.0) continue;
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.0f", args.empty() ? "" : ", ",
                  kCounterNames[i], delta[i]);
    args += buf;
  }
  return args;
}

/// Runs `fn` as phase `p` of `rec`: always timed; with the log active, also
/// a span carrying the phase's counter deltas.
template <typename Fn>
void timed(Phase p, PhaseRecord& rec, SpanLog& log, Fn&& fn) {
  Counts before{};
  if (log.active()) before = read_counters();
  const auto begin = Clock::now();
  fn();
  const auto end = Clock::now();
  rec.seconds[p] += seconds_between(begin, end);
  if (!log.active()) return;
  const Counts after = read_counters();
  Counts delta{};
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = after[i] - before[i];
    rec.counts[p][i] += delta[i];
  }
  log.add(std::string("core.") + kPhaseNames[p], begin, end,
          counter_args(delta));
}

// ---- inputs and deployment ------------------------------------------------------

/// One deployment's inputs: hier_setup's dataset, topology and config with
/// the common settings applied, plus the seed-drawn training order. Held by
/// pointer — the EdgeHdSystem built on it borrows the dataset.
struct Inputs {
  bench::HierSetup setup;
  std::vector<std::size_t> order;  ///< permutation of the train split
};

std::unique_ptr<Inputs> make_inputs(const Workload& w, std::uint64_t seed,
                                    std::size_t workers) {
  auto in = std::make_unique<Inputs>(
      Inputs{bench::hier_setup(w.dataset, w.train_cap, w.test_cap), {}});
  core::SystemConfig& cfg = in->setup.cfg;
  cfg.total_dim = kDim;
  cfg.projection_mode = hdc::ProjectionMode::kDeterministic;
  cfg.num_threads = workers;
  cfg.confidence_threshold = w.threshold;
  // Fisher-Yates on counter-derived draws: the same seed gives the same
  // order on every platform.
  auto& order = in->order;
  order.resize(in->setup.ds.train_size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = hdc::derive_seed(seed, i) % i;
    std::swap(order[i - 1], order[j]);
  }
  return in;
}

std::unique_ptr<core::EdgeHdSystem> make_system(const Inputs& in) {
  return std::make_unique<core::EdgeHdSystem>(in.setup.ds, in.setup.topo,
                                              in.setup.cfg);
}

struct LifecycleOut {
  core::CommStats comm;
  double accuracy = 0.0;  ///< root accuracy
  Fnv hash;
};

/// train_initial -> retrain_batches -> regenerate_dimensions -> accuracy
/// sweep over every classifier level.
LifecycleOut run_lifecycle(core::EdgeHdSystem& sys, const Inputs& in,
                           PhaseRecord& rec, SpanLog& log) {
  LifecycleOut out;
  const std::size_t train_n = in.order.size();
  const std::size_t test_n = in.setup.ds.test_size();
  const auto account = [&out](const core::CommStats& phase) {
    out.comm += phase;
    out.hash.add(phase.bytes);
    out.hash.add(phase.messages);
  };
  timed(kTrainInitial, rec, log, [&] { account(sys.train_initial(in.order)); });
  timed(kRetrainBatches, rec, log,
        [&] { account(sys.retrain_batches(in.order)); });
  timed(kRegenerate, rec, log,
        [&] { account(sys.regenerate_dimensions(kRegenDims)); });
  timed(kAccuracySweep, rec, log, [&] {
    for (std::size_t l = sys.config().classify_min_level;
         l <= sys.topology().depth(); ++l) {
      out.accuracy = sys.accuracy_at_level(l);
      out.hash.add(out.accuracy);
    }
  });
  // Encodings the facade computes: the train split on first training and
  // again after regeneration; the test split once for the sweep.
  rec.encode_all_calls[kTrainInitial] += static_cast<double>(train_n);
  rec.encode_all_calls[kRegenerate] += static_cast<double>(train_n);
  rec.encode_all_calls[kAccuracySweep] += static_cast<double>(test_n);
  return out;
}

// ---- one timed rep ----------------------------------------------------------------

struct RepOut {
  PhaseRecord rec;
  double ops = 0.0;    ///< workload operations in the rep
  double ops_s = 0.0;  ///< wall seconds those operations took
  double train_s = 0.0;
  double accuracy = 0.0;
  std::uint64_t train_bytes = 0;
  std::uint64_t hash = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool partition_ok = true;  ///< served + shed + unserved == submitted
  serve::ServeReport report;
};

serve::ServeReport serve_once(const Workload& w, const core::EdgeHdSystem& sys,
                              std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.record_replies = false;
  const auto leaves = sys.topology().leaves();
  auto engine = sys.serve_start(cfg);
  if (w.closed_loop) {
    serve::ClosedLoopSpec load;
    load.origins = leaves;
    load.clients_per_origin = kClientsPerOrigin;
    load.think = kThinkTime;
    load.num_queries = w.stream_queries;
    load.seed = hdc::derive_seed(seed, 0x5e7e);
    return engine->run(load);
  }
  return engine->run(serve::LoadSpec::poisson(
      leaves, kPoissonHzPerOrigin, w.stream_queries,
      hdc::derive_seed(seed, 0x5e7e)));
}

// ---- routed-inference probes --------------------------------------------------------

/// Synchronous routed-inference probes on a trained deployment. Pass p
/// starts every test query at leaf p mod L: first one query at a time
/// through infer_routed, then the whole split through infer_routed_batch,
/// which must return the same results. Passes run between timed reps, so
/// their samples span the run.
struct Probes {
  std::vector<std::vector<double>> single_us;  ///< per pass, per query
  std::vector<double> batch_qps;               ///< per pass
  std::uint64_t bytes = 0;
  std::uint64_t escalated = 0;
  bool batch_matches = true;
  PhaseRecord rec;

  std::size_t passes() const noexcept { return batch_qps.size(); }

  void pass(const core::EdgeHdSystem& sys, const data::Dataset& ds,
            SpanLog& log) {
    rec.traced = rec.traced || log.active();
    const auto leaves = sys.topology().leaves();
    const NodeId start = leaves[passes() % leaves.size()];
    const std::size_t n = ds.test_size();
    std::vector<proto::RoutedResult> singles(n);
    std::vector<double>& us = single_us.emplace_back();
    const auto pass_begin = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      singles[i] = sys.infer_routed(ds.test_x[i], start);
      us.push_back(1e6 * seconds_between(t0, Clock::now()));
      bytes += singles[i].bytes;
      escalated += singles[i].node != start ? 1 : 0;
    }
    log.add("core.infer_routed", pass_begin, Clock::now());
    std::vector<proto::RoutedResult> batch;
    const double before = rec.seconds[kInferRoutedBatch];
    timed(kInferRoutedBatch, rec, log,
          [&] { batch = sys.infer_routed_batch(ds.test_x, start); });
    batch_qps.push_back(static_cast<double>(n) /
                        (rec.seconds[kInferRoutedBatch] - before));
    rec.encode_all_calls[kInferRoutedBatch] += static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!same_result(batch[i], singles[i])) batch_matches = false;
    }
  }

  std::vector<double> all_single_us() const {
    std::vector<double> all;
    for (const auto& p : single_us) all.insert(all.end(), p.begin(), p.end());
    return all;
  }
  /// The lowest per-pass q-quantile: the pass least disturbed by the
  /// machine (see "Noise" in README.md).
  double best_pass_quantile(double q) const {
    std::vector<double> per_pass;
    for (const auto& p : single_us) per_pass.push_back(nearest_rank(p, q));
    return *std::min_element(per_pass.begin(), per_pass.end());
  }
};

// ---- per-unit layer replays ---------------------------------------------------------

/// Per-unit costs of the layers under the facade, each replayed through the
/// layer's public API at the workload's shapes on the trained deployment.
/// Single-threaded unless the name says batch (pool fan-out, as deployed).
struct Replays {
  double encode_batch_ns = 0.0;    ///< hdc leaf encode_batch, per sample
  double encode_all_us = 0.0;      ///< core full-hierarchy encode, per query
  double aggregate_ns = 0.0;       ///< hier gateway aggregate, per call
  double retrain_epoch_ns = 0.0;   ///< hdc leaf retrain epoch, per sample
  double predict_ns = 0.0;         ///< hdc single predict, per query (level mean)
  double predict_batch_ns = 0.0;   ///< hdc leaf predict_batch, per query
  double codec_ns_per_byte = 0.0;  ///< proto encode + decode of a leaf frame
  double bus_post_ns = 0.0;        ///< proto LocalBus(kEncoded) post, per frame
  double bus_frame_bytes = 0.0;
  double parallel_for_ns = 0.0;    ///< runtime fan-out overhead, per pool task
  double online_serve_us = 0.0;    ///< core online_serve, per query
};

/// Median over `reps` of ns per unit of `fn()`, which does `units` units.
template <typename Fn>
double ns_per_unit(std::size_t reps, double units, Fn&& fn) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(1e9 * seconds_between(t0, Clock::now()) / units);
  }
  return median(samples);
}

/// Takes the trained deployment and destroys it once the replays that need
/// it are done, so the replay pool never exists beside the system's own and
/// the process stays at workers + 1 threads.
Replays run_replays(std::unique_ptr<core::EdgeHdSystem> sys, const Inputs& in,
                    std::size_t workers, std::uint64_t seed, SpanLog& log) {
  const auto begin = Clock::now();
  Replays r;
  const data::Dataset& ds = in.setup.ds;
  const net::Topology& topo = in.setup.topo;
  const auto leaves = topo.leaves();
  const NodeId leaf = leaves.front();
  const NodeId gw = topo.parent(leaf);
  const std::size_t leaf_dim = sys->node_dim(leaf);
  const std::size_t slice = ds.partitions.front();
  const std::size_t n = ds.test_size();
  constexpr std::size_t kReps = 3;

  std::vector<std::vector<hdc::BipolarHV>> all(n);
  r.encode_all_us = 1e-3 * ns_per_unit(kReps, static_cast<double>(n), [&] {
    for (std::size_t s = 0; s < n; ++s) all[s] = sys->encode_all(ds.test_x[s]);
  });

  // The first gateway's aggregator, rebuilt from its child dimensions.
  const auto kids = topo.children(gw);
  std::vector<std::size_t> child_dims;
  for (NodeId k : kids) child_dims.push_back(sys->node_dim(k));
  const hier::HierEncoder agg(child_dims, sys->node_dim(gw),
                              hdc::derive_seed(seed, 0xa66),
                              sys->config().aggregation,
                              sys->config().projection_row_nnz);
  std::vector<std::vector<hdc::BipolarHV>> child_hvs(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (NodeId k : kids) child_hvs[s].push_back(all[s][k]);
  }
  r.aggregate_ns = ns_per_unit(kReps, static_cast<double>(n), [&] {
    for (std::size_t s = 0; s < n; ++s) (void)agg.aggregate(child_hvs[s]);
  });

  // Single predicts on one classifier per level, averaged over the levels.
  double predict_sum = 0.0;
  std::size_t levels = 0;
  for (std::size_t l = sys->config().classify_min_level; l <= topo.depth();
       ++l) {
    const NodeId node = topo.nodes_at_level(l).front();
    const hdc::HDClassifier& clf = sys->classifier_at(node);
    clf.warm_cache();
    predict_sum += ns_per_unit(kReps, static_cast<double>(n), [&] {
      for (std::size_t s = 0; s < n; ++s) (void)clf.predict(all[s][node]);
    });
    ++levels;
  }
  r.predict_ns = predict_sum / static_cast<double>(levels);
  const hdc::HDClassifier leaf_clf = sys->classifier_at(leaf);

  // online_serve changes the models, so it runs last on the deployment.
  r.online_serve_us =
      1e-3 * ns_per_unit(1, static_cast<double>(kOnlineReplayQueries), [&] {
        for (std::size_t q = 0; q < kOnlineReplayQueries; ++q) {
          const std::size_t s = q % n;
          (void)sys->online_serve(ds.test_x[s], ds.test_y[s],
                                  leaves[q % leaves.size()]);
        }
      });
  sys.reset();

  runtime::ThreadPool pool(workers);
  std::vector<std::vector<float>> slices(n);
  for (std::size_t s = 0; s < n; ++s) {
    slices[s].assign(ds.test_x[s].begin(),
                     ds.test_x[s].begin() + static_cast<std::ptrdiff_t>(slice));
  }
  const auto encoder =
      hdc::make_encoder(hdc::EncoderKind::kRbfSparse, slice, leaf_dim,
                        hdc::derive_seed(seed, 0xe4c), in.setup.cfg.projection_mode);
  std::vector<hdc::BipolarHV> leaf_hvs;
  r.encode_batch_ns = ns_per_unit(kReps, static_cast<double>(n), [&] {
    leaf_hvs = encoder->encode_batch(slices, pool);
  });

  hdc::HDClassifier replay_clf(ds.num_classes, leaf_dim);
  replay_clf.train_batch(leaf_hvs, ds.test_y, pool);
  r.retrain_epoch_ns = ns_per_unit(kReps, static_cast<double>(n), [&] {
    (void)replay_clf.retrain_epoch(leaf_hvs, ds.test_y);
  });

  std::vector<hdc::BipolarHV> start_hvs(n);
  for (std::size_t s = 0; s < n; ++s) start_hvs[s] = all[s][leaf];
  r.predict_batch_ns = ns_per_unit(kReps, static_cast<double>(n), [&] {
    (void)leaf_clf.predict_batch(start_hvs, pool);
  });

  // A leaf's per-class batch hypervector: the retraining frame.
  hdc::AccumHV accum(leaf_dim);
  for (std::size_t d = 0; d < leaf_dim; ++d) {
    accum[d] = static_cast<std::int32_t>(hdc::derive_seed(seed, d) % 301) - 150;
  }
  const proto::Envelope frame{proto::kProtoVersion, leaf, gw,
                              proto::BatchUpdate{0, 0, accum}};
  const std::size_t frame_bytes = proto::encode(frame).size();
  constexpr std::size_t kFrames = 200;
  r.codec_ns_per_byte =
      ns_per_unit(kReps, static_cast<double>(kFrames * frame_bytes), [&] {
        for (std::size_t i = 0; i < kFrames; ++i) {
          const auto bytes = proto::encode(frame);
          if (!proto::decode(bytes).ok()) std::abort();
        }
      });
  proto::LocalBus bus(topo.num_nodes(), proto::LocalBus::Codec::kEncoded);
  bus.subscribe(gw, [](const proto::Envelope&) {});
  r.bus_frame_bytes = static_cast<double>(frame_bytes);
  r.bus_post_ns = ns_per_unit(kReps, static_cast<double>(kFrames), [&] {
    for (std::size_t i = 0; i < kFrames; ++i) bus.post(frame);
  });

  // Fan-out overhead: trivial bodies, so the time is dispatch and join.
  constexpr std::size_t kCalls = 2000;
  const double tasks_before = read_counters()[kPoolTasks];
  std::vector<std::uint64_t> sink(64);
  const double total_ns = ns_per_unit(1, 1.0, [&] {
    for (std::size_t c = 0; c < kCalls; ++c) {
      runtime::parallel_for(pool, sink.size(),
                            [&](std::size_t i) { sink[i] += i; }, 1);
    }
  });
  const double tasks = read_counters()[kPoolTasks] - tasks_before;
  r.parallel_for_ns = total_ns / std::max(1.0, tasks);
  log.add("bench.replays", begin, Clock::now());
  return r;
}

// ---- options and output -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 7.0;
  bool trace = false;
  std::size_t workers = 0;
  std::string out;
  std::string trace_out = "bench_e2e_trace.json";
  bool smoke = false;
};

std::size_t default_workers() {
  // parallel_for runs chunks on the pool's workers *and* the calling thread,
  // so min(4, nproc) - 1 workers keep the process at min(4, nproc) threads.
  const std::size_t hw = std::max(1U, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min<std::size_t>(4, hw) - 1);
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      std::fprintf(stderr, "bench_e2e: %s needs a value\n", a.c_str());
      return false;
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--workers") {
      opt.workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--out") {
      opt.out = argv[++i];
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "bench_e2e: unknown option %s\n", a.c_str());
      return false;
    }
  }
  if (opt.workers == 0) opt.workers = default_workers();
  if (opt.smoke) opt.seconds = 0.0;
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "" : s.substr(first);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- the run --------------------------------------------------------------------------

class Bench {
 public:
  Bench(const Workload& w, const Options& opt) : w_(w), opt_(opt) {}

  int run();

 private:
  void check(bool ok, const char* what) {
    if (!ok) failures_.emplace_back(what);
  }
  void warm_up();
  void setup_once();
  RepOut rep_once();
  void rounds();
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer(const Replays& rp) const;
  void attribution(const Replays& rp, std::vector<Metric>& out) const;
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  const Workload w_;
  const Options opt_;
  SpanLog log_;
  std::vector<std::string> failures_;

  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<core::EdgeHdSystem> sys_;  ///< the round's deployment
  std::vector<double> setup_s_;
  std::vector<PhaseRecord> lifecycle_recs_;  ///< one per trained system
  std::vector<LifecycleOut> setup_lifecycles_;
  std::vector<RepOut> reps_;
  Probes probes_;
};

void Bench::warm_up() {
  // The first seconds of all-core work after the machine idles run up to
  // 2.4x slower (measured; a busy loop on every core beforehand removes the
  // effect), so the training workloads run one untimed train_initial +
  // retrain_batches first. The serve workloads' first setup trains a
  // deployment, which has the same effect.
  if (w_.kind == Kind::kServe || opt_.smoke) return;
  const auto begin = Clock::now();
  const auto in = make_inputs(w_, opt_.seed, opt_.workers);
  auto sys = make_system(*in);
  sys->train_initial(in->order);
  sys->retrain_batches(in->order);
  log_.add("bench.warm_up", begin, Clock::now());
}

/// One setup sample: dataset generation and system construction, plus the
/// training lifecycle for the serve workloads. The round's rep and probes
/// run on the system it builds.
void Bench::setup_once() {
  sys_.reset();
  inputs_.reset();
  const auto begin = Clock::now();
  inputs_ = make_inputs(w_, opt_.seed, opt_.workers);
  sys_ = make_system(*inputs_);
  if (w_.kind == Kind::kServe) {
    PhaseRecord rec;
    rec.traced = log_.active();
    setup_lifecycles_.push_back(run_lifecycle(*sys_, *inputs_, rec, log_));
    lifecycle_recs_.push_back(rec);
  }
  const auto end = Clock::now();
  setup_s_.push_back(seconds_between(begin, end));
  log_.add("bench.setup", begin, end);
}

RepOut Bench::rep_once() {
  const data::Dataset& ds = inputs_->setup.ds;
  RepOut rep;
  rep.rec.traced = log_.active();
  const auto begin = Clock::now();
  if (w_.kind == Kind::kServe) {
    timed(kServeRun, rep.rec, log_,
          [&] { rep.report = serve_once(w_, *sys_, opt_.seed); });
    const serve::ServeReport& r = rep.report;
    rep.ops = static_cast<double>(r.served);
    rep.ops_s = rep.rec.seconds[kServeRun];
    rep.accuracy = static_cast<double>(r.correct) /
                   static_cast<double>(std::max<std::uint64_t>(1, r.served));
    rep.hash = r.reply_hash;
    rep.attempted = r.submitted;
    rep.failed = r.shed_admission + r.unserved;
    rep.partition_ok = r.served + r.shed_admission + r.unserved == r.submitted;
    // Each query that escalates encodes the full hierarchy once, on the
    // event-loop thread (Engine::ensure_hvs); those were served above the
    // leaves.
    double escalated = 0.0;
    for (NodeId id = 0; id < r.per_node.size(); ++id) {
      if (!sys_->topology().is_leaf(id)) {
        escalated += static_cast<double>(r.per_node[id].served);
      }
    }
    rep.rec.encode_all_calls[kServeRun] = escalated;
  } else {
    const LifecycleOut life = run_lifecycle(*sys_, *inputs_, rep.rec, log_);
    rep.train_s = rep.rec.seconds[kTrainInitial] +
                  rep.rec.seconds[kRetrainBatches] +
                  rep.rec.seconds[kRegenerate];
    rep.train_bytes = life.comm.bytes;
    rep.accuracy = life.accuracy;
    Fnv hash = life.hash;
    if (w_.kind == Kind::kTrain) {
      rep.ops = static_cast<double>(inputs_->order.size());
      rep.ops_s = rep.train_s + rep.rec.seconds[kAccuracySweep];
      rep.attempted = 1;
    } else {
      const auto leaves = sys_->topology().leaves();
      const auto& order = inputs_->order;
      double wrong = 0.0;
      for (std::size_t q = 0; q < w_.stream_queries;
           q += w_.propagate_every) {
        const std::size_t end =
            std::min(q + w_.propagate_every, w_.stream_queries);
        timed(kOnlineServe, rep.rec, log_, [&] {
          for (std::size_t i = q; i < end; ++i) {
            const std::size_t s = order[i % order.size()];
            const auto r = sys_->online_serve(ds.train_x[s], ds.train_y[s],
                                              leaves[i % leaves.size()]);
            hash.add(r);
            wrong += r.label != ds.train_y[s] ? 1.0 : 0.0;
            rep.failed += r.served() ? 0 : 1;
          }
        });
        core::CommStats residual;
        timed(kPropagate, rep.rec, log_,
              [&] { residual = sys_->propagate_residuals(); });
        rep.train_bytes += residual.bytes;
        hash.add(residual.bytes);
      }
      timed(kAccuracySweep, rep.rec, log_, [&] {
        rep.accuracy = sys_->accuracy_at_level(sys_->topology().depth());
      });
      hash.add(rep.accuracy);
      rep.ops = static_cast<double>(w_.stream_queries);
      rep.ops_s = rep.rec.seconds[kOnlineServe] + rep.rec.seconds[kPropagate];
      rep.attempted = w_.stream_queries;
      // online_serve encodes each query once for routing and once more for
      // the feedback on a wrong answer.
      rep.rec.encode_all_calls[kOnlineServe] =
          static_cast<double>(w_.stream_queries) + wrong;
    }
    rep.hash = hash.h;
    lifecycle_recs_.push_back(rep.rec);
  }
  const auto end = Clock::now();
  rep.rec.wall_s = seconds_between(begin, end);
  log_.add("bench.rep", begin, end);
  return rep;
}

/// The run is a sequence of rounds, each a setup, a timed rep and probe
/// passes on the round's deployment, until --seconds of reps have run. The
/// interleaving spreads every metric's samples over the whole run.
void Bench::rounds() {
  const std::size_t min_rounds = opt_.smoke ? 2 : (opt_.trace ? 4 : kMinRounds);
  const std::size_t passes = opt_.smoke ? 1 : kPassesPerRound;
  double measured = 0.0;
  while (reps_.size() < min_rounds || measured < opt_.seconds) {
    // A traced run alternates traced and untraced rounds, so the two can be
    // compared for trace_overhead_frac.
    log_.set_active(opt_.trace && reps_.size() % 2 == 0);
    setup_once();
    reps_.push_back(rep_once());
    measured += reps_.back().rec.wall_s;
    log_.set_active(opt_.trace);
    for (std::size_t p = 0; p < passes; ++p) {
      probes_.pass(*sys_, inputs_->setup.ds, log_);
    }
  }
  for (const RepOut& rep : reps_) {
    const RepOut& first = reps_.front();
    check(rep.hash == first.hash, "rep outputs (reply hash) differ across reps");
    check(rep.train_bytes == first.train_bytes,
          "train_bytes differs across reps");
    check(rep.accuracy == first.accuracy, "accuracy differs across reps");
    check(rep.partition_ok, "served + shed + unserved != submitted");
  }
  for (const LifecycleOut& l : setup_lifecycles_) {
    const LifecycleOut& first = setup_lifecycles_.front();
    check(l.hash.h == first.hash.h && l.comm == first.comm &&
              l.accuracy == first.accuracy,
          "setup lifecycles differ across setups");
  }
  check(probes_.batch_matches,
        "infer_routed_batch differs from the per-query infer_routed loop");
}

std::uint64_t Bench::attempted() const {
  std::uint64_t n = 0;
  for (const RepOut& r : reps_) n += r.attempted;
  return n;
}

std::uint64_t Bench::failed() const {
  std::uint64_t n = 0;
  for (const RepOut& r : reps_) n += r.failed;
  return n;
}

/// Wall-clock metrics take the best sample of the run: interference from
/// the machine only ever adds time, so the fastest of several samples spread
/// over the run estimates the program's own cost (README.md, "Noise").
std::vector<Metric> Bench::end_to_end() const {
  std::vector<double> train_s, ops_per_s;
  for (const PhaseRecord& rec : lifecycle_recs_) {
    train_s.push_back(rec.seconds[kTrainInitial] +
                      rec.seconds[kRetrainBatches] + rec.seconds[kRegenerate]);
  }
  for (const RepOut& r : reps_) ops_per_s.push_back(r.ops / r.ops_s);
  const std::uint64_t train_bytes = w_.kind == Kind::kServe
                                        ? setup_lifecycles_.front().comm.bytes
                                        : reps_.front().train_bytes;
  const auto lowest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const auto highest = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  return {
      {"setup_s", lowest(setup_s_), "s"},
      {"train_s", lowest(train_s), "s"},
      {"ops_per_s", highest(ops_per_s), "1/s"},
      {"routed_p50_us", probes_.best_pass_quantile(0.50), "us"},
      {"routed_batch_qps", highest(probes_.batch_qps), "1/s"},
      {"accuracy", reps_.front().accuracy, "fraction"},
      {"train_bytes", static_cast<double>(train_bytes), "B"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-phase seconds and counter deltas averaged over the traced records in
/// which the phase ran.
struct PhaseMean {
  double seconds = 0.0;
  double encode_all_calls = 0.0;
  Counts counts{};
};

PhaseMean phase_mean(Phase p, const std::vector<const PhaseRecord*>& recs) {
  PhaseMean m;
  double n = 0.0;
  for (const PhaseRecord* r : recs) {
    if (!r->traced || r->seconds[p] == 0.0) continue;
    m.seconds += r->seconds[p];
    m.encode_all_calls += r->encode_all_calls[p];
    for (std::size_t i = 0; i < m.counts.size(); ++i) m.counts[i] += r->counts[p][i];
    n += 1.0;
  }
  if (n == 0.0) return {};
  m.seconds /= n;
  m.encode_all_calls /= n;
  for (double& c : m.counts) c /= n;
  return m;
}

/// attributed_share.<phase> = sum over layers of (count x replayed unit cost)
/// / phase wall time; unattributed_share is the rest (floored at 0). Costs
/// replayed single-threaded are divided by the thread count where the
/// facade fans the call out over its pool. The model is in README.md.
void Bench::attribution(const Replays& rp, std::vector<Metric>& out) const {
  std::vector<const PhaseRecord*> recs{&probes_.rec};
  for (const RepOut& r : reps_) recs.push_back(&r.rec);
  // The serve workloads train in setup; elsewhere the lifecycles are reps.
  if (w_.kind == Kind::kServe) {
    for (const PhaseRecord& r : lifecycle_recs_) recs.push_back(&r);
  }
  const double threads = static_cast<double>(opt_.workers + 1);
  const net::Topology& topo = inputs_->setup.topo;
  double classifiers = 0.0;
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    classifiers +=
        topo.level(id) >= inputs_->setup.cfg.classify_min_level ? 1.0 : 0.0;
  }
  const double leaf_share =
      static_cast<double>(topo.leaves().size()) / classifiers;
  const double bus_ns_per_byte = rp.bus_post_ns / rp.bus_frame_bytes;
  const double train_n = static_cast<double>(inputs_->order.size());

  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    const PhaseMean m = phase_mean(phase, recs);
    // The serving engine encodes escalations on its event-loop thread and
    // online_serve runs one query at a time; everything else fans out.
    const double encode_par =
        phase == kServeRun || phase == kOnlineServe ? 1.0 : threads;
    const double predict_par = phase == kOnlineServe ? 1.0 : threads;
    double ns = m.encode_all_calls * rp.encode_all_us * 1e3 / encode_par;
    ns += m.counts[kPredictQueries] * rp.predict_ns / predict_par;
    ns += m.counts[kEncSamples] * rp.encode_batch_ns;
    // Leaves retrain serially on every training sample each epoch.
    ns += m.counts[kRetrainEpochs] * leaf_share * train_n * rp.retrain_epoch_ns;
    for (std::size_t b : kTrainingBytes) ns += m.counts[b] * bus_ns_per_byte;
    const double share = m.seconds > 0.0 ? 1e-9 * ns / m.seconds : 0.0;
    out.push_back({std::string("attributed_share.") + kPhaseNames[p], share,
                   "fraction"});
    out.push_back({std::string("unattributed_share.") + kPhaseNames[p],
                   m.seconds > 0.0 ? std::max(0.0, 1.0 - share) : 0.0,
                   "fraction"});
  }
}

std::vector<Metric> Bench::per_layer(const Replays& rp) const {
  std::vector<Metric> out;
  // Everything below is per traced timed rep.
  double traced = 0.0;
  double wall = 0.0;
  std::array<double, kPhaseCount> phase_s{};
  Counts per_rep{};
  std::vector<double> traced_wall, untraced_wall;
  double batches = 0.0, admitted = 0.0, hops = 0.0, peak_queue = 0.0;
  double virtual_p99_ms = 0.0;
  for (const RepOut& r : reps_) {
    (r.rec.traced ? traced_wall : untraced_wall).push_back(r.rec.wall_s);
    if (!r.rec.traced) continue;
    traced += 1.0;
    wall += r.rec.wall_s;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      phase_s[p] += r.rec.seconds[p];
      for (std::size_t i = 0; i < per_rep.size(); ++i) {
        per_rep[i] += r.rec.counts[p][i];
      }
    }
    batches += static_cast<double>(r.report.batches);
    hops += static_cast<double>(r.report.escalation_hops);
    for (const auto& s : r.report.per_node) {
      admitted += static_cast<double>(s.admitted);
      peak_queue = std::max(peak_queue, static_cast<double>(s.peak_queue));
    }
    virtual_p99_ms = r.report.p99_latency_ns / 1e6;
  }
  for (double& c : per_rep) c /= traced;
  double covered = 0.0;
  for (std::size_t p = kTrainInitial; p < kInferRoutedBatch; ++p) {
    out.push_back({std::string("core.") + kPhaseNames[p] + ".share",
                   phase_s[p] / wall, "fraction"});
    covered += phase_s[p];
  }
  out.push_back({"bench.glue.share", 1.0 - covered / wall, "fraction"});

  std::array<std::vector<double>, kPhaseCount> lifecycle_s;
  for (const PhaseRecord& rec : lifecycle_recs_) {
    for (std::size_t p = kTrainInitial; p <= kAccuracySweep; ++p) {
      lifecycle_s[p].push_back(rec.seconds[p]);
    }
  }
  for (std::size_t p = kTrainInitial; p <= kAccuracySweep; ++p) {
    out.push_back({std::string("core.") + kPhaseNames[p] + "_s",
                   median(lifecycle_s[p]), "s"});
  }
  out.push_back({"core.infer_routed_batch_s",
                 probes_.rec.seconds[kInferRoutedBatch] /
                     static_cast<double>(probes_.passes()),
                 "s"});
  const std::vector<double> single_us = probes_.all_single_us();
  double single_sum = 0.0;
  for (double us : single_us) single_sum += us;
  out.push_back({"core.infer_routed.us_per_query",
                 single_sum / static_cast<double>(single_us.size()),
                 "us"});
  out.push_back({"core.infer_routed.p95_us", probes_.best_pass_quantile(0.95),
                 "us"});
  out.push_back({"core.infer_routed.p99_us", nearest_rank(single_us, 0.99), "us"});
  out.push_back({"core.infer_routed.samples",
                 static_cast<double>(single_us.size()), "count"});

  attribution(rp, out);

  out.push_back({"hdc.encode_batch.ns_per_sample", rp.encode_batch_ns, "ns"});
  out.push_back({"core.encode_all.us_per_query", rp.encode_all_us, "us"});
  out.push_back({"hier.aggregate.ns_per_call", rp.aggregate_ns, "ns"});
  out.push_back({"hdc.retrain_epoch.ns_per_sample", rp.retrain_epoch_ns, "ns"});
  out.push_back({"hdc.predict.ns_per_query", rp.predict_ns, "ns"});
  out.push_back({"hdc.predict_batch.ns_per_query", rp.predict_batch_ns, "ns"});
  out.push_back({"proto.codec.ns_per_byte", rp.codec_ns_per_byte, "ns/B"});
  out.push_back({"proto.bus.post_ns", rp.bus_post_ns, "ns"});
  out.push_back({"runtime.parallel_for.ns_per_task", rp.parallel_for_ns, "ns"});
  out.push_back({"core.online_serve.us_per_query", rp.online_serve_us, "us"});

  // Counts per traced timed rep.
  out.push_back({"hdc.encode.batches", per_rep[kEncBatches], "count"});
  out.push_back({"hdc.encode.samples", per_rep[kEncSamples], "count"});
  out.push_back({"hdc.encode.busy_share",
                 1e-9 * per_rep[kEncodeBusyNs] / (wall / traced), "fraction"});
  out.push_back({"hdc.retrain.updates", per_rep[kRetrainUpdates], "count"});
  out.push_back({"hdc.retrain.epochs", per_rep[kRetrainEpochs], "count"});
  out.push_back({"hdc.train.samples", per_rep[kTrainSamples], "count"});
  out.push_back({"hdc.predict.queries", per_rep[kPredictQueries], "count"});
  for (std::size_t i = kProtoFirst; i < kServeBatches; ++i) {
    const bool bytes = (i - kProtoFirst) % 2 == 1;
    out.push_back({kCounterNames[i], per_rep[i], bytes ? "B" : "count"});
  }
  out.push_back({"serve.batches", batches / traced, "count"});
  // Every admission (arrival or escalation) is predicted in some batch.
  out.push_back({"serve.mean_batch", batches > 0.0 ? admitted / batches : 0.0,
                 "count"});
  out.push_back({"serve.escalation_hops", hops / traced, "count"});
  out.push_back({"serve.peak_queue", peak_queue, "count"});
  out.push_back({"serve.virtual_p99", virtual_p99_ms, "ms_virtual"});
  out.push_back({"runtime.pool.tasks", per_rep[kPoolTasks], "count"});
  out.push_back({"runtime.pool.steals", per_rep[kPoolSteals], "count"});
  const double probed = static_cast<double>(single_us.size());
  out.push_back({"core.query_bytes",
                 static_cast<double>(probes_.bytes) / probed, "B"});
  out.push_back({"core.escalation_rate",
                 static_cast<double>(probes_.escalated) / probed, "fraction"});
  out.push_back({"trace_overhead_frac",
                 median(traced_wall) / median(untraced_wall) - 1.0,
                 "fraction"});
  return out;
}

int Bench::run() {
  log_.set_active(opt_.trace);
  warm_up();
  rounds();
  const double chance = 1.0 / static_cast<double>(inputs_->setup.ds.num_classes);
  check(reps_.front().accuracy >= 1.5 * chance, "accuracy below 1.5x chance");
  if (!failures_.empty()) {
    for (const auto& f : failures_) std::printf("check failed: %s\n", f.c_str());
    std::printf(
        "{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {}}\n",
        static_cast<unsigned long long>(attempted()),
        static_cast<unsigned long long>(failed()));
    return 1;
  }

  std::vector<Metric> metrics;
  if (opt_.trace) {
    const Replays rp =
        run_replays(std::move(sys_), *inputs_, opt_.workers, opt_.seed, log_);
    metrics = per_layer(rp);
    if (!log_.write(opt_.trace_out)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", opt_.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", log_.size(), opt_.trace_out.c_str());
  } else {
    metrics = end_to_end();
  }

  const std::string backend =
      obs::MetricsRegistry::global().label("hdc.kernel.backend");
  std::printf("bench_e2e %s seed=%llu workers=%zu reps=%zu backend=%s%s\n",
              w_.name, static_cast<unsigned long long>(opt_.seed),
              opt_.workers, reps_.size(), backend.c_str(),
              opt_.trace ? " (traced)" : "");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  char head[160];
  std::snprintf(head, sizeof head,
                "\"correct\": true, \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(attempted()),
                static_cast<unsigned long long>(failed()));
  const std::string body = metrics_json(metrics);
  if (!opt_.out.empty()) {
    std::FILE* f = std::fopen(opt_.out.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_e2e: cannot append to %s\n", opt_.out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"smoke\": %s, \"machine\": {\"cpu\": \"%s\", \"nproc\": %u, "
                 "\"workers\": %zu, \"backend\": \"%s\", \"compiler\": \"%s\"}, "
                 "%s, \"metrics\": %s}\n",
                 w_.name, static_cast<unsigned long long>(opt_.seed),
                 opt_.trace ? 1 : 0, opt_.smoke ? "true" : "false",
                 cpu_model().c_str(), std::thread::hardware_concurrency(),
                 opt_.workers, backend.c_str(), __VERSION__, head, body.c_str());
    std::fclose(f);
  }
  std::printf("{%s, \"metrics\": %s}\n", head, body.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (opt.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s' (expected one of:",
                 opt.workload.c_str());
    for (const Workload& c : kWorkloads) std::fprintf(stderr, " %s", c.name);
    std::fprintf(stderr, ")\n");
    return 2;
  }
  Bench bench(opt.smoke ? smoke_size(*w) : *w, opt);
  return bench.run();
}
