#include "edgehd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "hdc/random.hpp"
#include "hdc/wire.hpp"
#include "obs/trace.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/parallel.hpp"

namespace edgehd::core {

using hdc::AccumHV;
using hdc::BipolarHV;
using hdc::derive_seed;
using net::NodeId;

namespace {

/// Protocol-layer registry handles, interned once per process. Counter
/// increments are deterministic for a fixed (seed, plan, worker-count) run —
/// the sums are order-independent — so all of these are registered stable.
struct CoreObs {
  obs::Counter routed_queries;
  obs::Counter routed_escalations;
  obs::Counter routed_degraded;
  obs::Counter routed_unserved;
  obs::Counter routed_bytes;
  obs::Counter routed_retry_bytes;
  obs::Histogram confidence;
  obs::Counter train_initial_bytes, train_initial_messages;
  obs::Counter retrain_bytes, retrain_messages;
  obs::Counter residual_bytes, residual_messages;
  obs::Counter reintegrate_bytes, reintegrate_messages;
  obs::Counter rejoin_bytes, rejoin_messages;
  obs::Counter regen_bytes, regen_messages;

  static const CoreObs& get() {
    static const CoreObs o = [] {
      CoreObs c;
      if constexpr (obs::kEnabled) {
        auto& reg = obs::MetricsRegistry::global();
        c.routed_queries = reg.counter("core.routed.queries");
        c.routed_escalations = reg.counter("core.routed.escalations");
        c.routed_degraded = reg.counter("core.routed.served_degraded");
        c.routed_unserved = reg.counter("core.routed.unserved");
        c.routed_bytes = reg.counter("core.routed.bytes");
        c.routed_retry_bytes = reg.counter("core.routed.retry_bytes");
        // Confidence-threshold histogram: where served queries landed
        // relative to SystemConfig::confidence_threshold.
        std::vector<double> bounds;
        for (int b = 1; b < 20; ++b) bounds.push_back(0.05 * b);
        c.confidence = reg.histogram("core.routed.confidence", bounds);
        c.train_initial_bytes = reg.counter("core.train_initial.bytes");
        c.train_initial_messages = reg.counter("core.train_initial.messages");
        c.retrain_bytes = reg.counter("core.retrain.bytes");
        c.retrain_messages = reg.counter("core.retrain.messages");
        c.residual_bytes = reg.counter("core.residual.bytes");
        c.residual_messages = reg.counter("core.residual.messages");
        c.reintegrate_bytes = reg.counter("core.reintegrate.bytes");
        c.reintegrate_messages = reg.counter("core.reintegrate.messages");
        c.rejoin_bytes = reg.counter("core.rejoin.bytes");
        c.rejoin_messages = reg.counter("core.rejoin.messages");
        c.regen_bytes = reg.counter("core.regen.bytes");
        c.regen_messages = reg.counter("core.regen.messages");
      }
      return c;
    }();
    return o;
  }
};

void record_routed(const RoutedResult& result) {
  const CoreObs& o = CoreObs::get();
  o.routed_queries.inc();
  if (!result.served()) {
    o.routed_unserved.inc();
    return;
  }
  if (result.degraded) o.routed_degraded.inc();
  o.routed_bytes.inc(result.bytes);
  o.routed_retry_bytes.inc(result.retry_bytes);
  o.confidence.observe(result.confidence);
}

/// Feature partition `p` of each picked row: what that partition's leaf
/// observes of those samples.
template <typename Index>
std::vector<std::vector<float>> leaf_slices(
    const data::Dataset& ds, std::size_t p,
    const std::vector<std::vector<float>>& rows, std::span<const Index> picks) {
  const auto offset = static_cast<std::ptrdiff_t>(ds.partition_offset(p));
  const auto len = static_cast<std::ptrdiff_t>(ds.partitions[p]);
  std::vector<std::vector<float>> slices(picks.size());
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const auto first = rows[picks[i]].begin() + offset;
    slices[i].assign(first, first + len);
  }
  return slices;
}

}  // namespace

std::size_t scaled_batch_size(std::size_t paper_batch, std::size_t paper_train,
                              std::size_t actual_train) {
  if (paper_train == 0) return std::max<std::size_t>(1, paper_batch);
  const double scaled = static_cast<double>(paper_batch) *
                        static_cast<double>(actual_train) /
                        static_cast<double>(paper_train);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(scaled)));
}

EdgeHdSystem::EdgeHdSystem(const data::Dataset& ds, net::Topology topology,
                           SystemConfig config)
    : ds_(ds),
      topology_(std::move(topology)),
      config_(config),
      pool_(std::make_unique<runtime::ThreadPool>(config.num_threads)) {
  pending_contrib_.resize(topology_.num_nodes());
  pending_residuals_.resize(topology_.num_nodes());
  node_serves_.resize(topology_.num_nodes());
  if constexpr (obs::kEnabled) {
    auto& reg = obs::MetricsRegistry::global();
    for (NodeId id = 0; id < topology_.num_nodes(); ++id) {
      node_serves_[id] =
          reg.counter("core.routed.serves.node" + std::to_string(id));
    }
  }
  leaves_ = topology_.leaves();
  if (leaves_.size() != ds_.partitions.size()) {
    throw std::invalid_argument(
        "EdgeHdSystem: topology leaf count must match dataset partitions");
  }
  if (config_.classify_min_level == 0 ||
      config_.classify_min_level > topology_.depth()) {
    throw std::invalid_argument(
        "EdgeHdSystem: classify_min_level outside the hierarchy depth");
  }

  std::vector<std::size_t> leaf_features(leaves_.size());
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    leaf_features[i] = ds_.partitions[i];
  }
  alloc_ = hier::allocate_dims(topology_, leaf_features, config_.total_dim,
                               config_.min_node_dim);

  nodes_.resize(topology_.num_nodes());
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    nodes_[leaves_[i]].set_partition(i);
  }

  // Leaves first so concatenation-mode internal dims can be summed upward.
  for (NodeId id : topology_.bottom_up()) {
    proto::NodeRuntime& rt = nodes_[id];
    if (topology_.is_leaf(id)) {
      const std::size_t dim = alloc_.dims[id];
      rt.init(id, topology_, dim, ds_.num_classes);
      rt.install_leaf_encoder(hdc::make_encoder(
          config_.leaf_encoder, ds_.partitions[rt.partition()], dim,
          derive_seed(config_.seed, 1000 + id), config_.projection_mode,
          config_.projection_budget_bytes));
    } else {
      const auto& kids = topology_.children(id);
      std::vector<std::size_t> child_dims(kids.size());
      for (std::size_t c = 0; c < kids.size(); ++c) {
        child_dims[c] = nodes_[kids[c]].dim();
      }
      const std::size_t concat_dim = std::accumulate(
          child_dims.begin(), child_dims.end(), std::size_t{0});
      const std::size_t dim =
          config_.aggregation == hier::AggregationMode::kConcatenation
              ? concat_dim
              : alloc_.dims[id];
      rt.init(id, topology_, dim, ds_.num_classes);
      rt.install_aggregator(std::make_unique<hier::HierEncoder>(
          std::move(child_dims), dim, derive_seed(config_.seed, 2000 + id),
          config_.aggregation, config_.projection_row_nnz));
    }
    if (topology_.level(id) >= config_.classify_min_level) {
      hdc::ClassifierConfig cc;
      cc.retrain_epochs = config_.retrain_epochs;
      cc.softmax_beta = config_.softmax_beta;
      rt.install_classifier(std::make_unique<hdc::HDClassifier>(
          ds_.num_classes, rt.dim(), cc));
    }
  }

  // Wire the delivery fabric: each runtime consumes the envelopes addressed
  // to it. nodes_ is sized for good above, so the captured pointers are
  // stable.
  bus_ = std::make_unique<proto::LocalBus>(topology_.num_nodes());
  for (NodeId id = 0; id < topology_.num_nodes(); ++id) {
    proto::NodeRuntime* rt = &nodes_[id];
    bus_->subscribe(
        id, [rt](proto::Envelope&& env) { rt->on_envelope(std::move(env)); });
  }
}

proto::SessionContext EdgeHdSystem::session_context() {
  proto::SessionContext ctx;
  ctx.topology = &topology_;
  ctx.nodes = nodes_;
  ctx.bus = bus_.get();
  ctx.pool = pool_.get();
  ctx.liveness = liveness();
  ctx.num_classes = ds_.num_classes;
  ctx.batch_size = config_.batch_size;
  ctx.labels = train_labels_;
  ctx.pending_contrib = &pending_contrib_;
  ctx.pending_residuals = &pending_residuals_;
  ctx.stragglers = &stragglers_;
  return ctx;
}

proto::RoutingContext EdgeHdSystem::routing_context() const {
  proto::RoutingContext ctx;
  ctx.topology = &topology_;
  ctx.nodes = nodes_;
  ctx.liveness = liveness();
  ctx.confidence_threshold = config_.confidence_threshold;
  ctx.compression = config_.compression;
  ctx.serve_degraded = config_.failover.serve_degraded;
  ctx.max_retries = config_.reliable.max_retries;
  ctx.escalations = &CoreObs::get().routed_escalations;
  return ctx;
}

std::size_t EdgeHdSystem::node_dim(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("EdgeHdSystem: node id out of range");
  }
  return nodes_[id].dim();
}

bool EdgeHdSystem::has_classifier(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("EdgeHdSystem: node id out of range");
  }
  return nodes_[id].has_classifier();
}

const hdc::HDClassifier& EdgeHdSystem::classifier_at(NodeId id) const {
  if (!has_classifier(id)) {
    throw std::invalid_argument("EdgeHdSystem: node hosts no classifier");
  }
  return nodes_[id].classifier();
}

// ---- fault awareness -------------------------------------------------------

void EdgeHdSystem::set_health(net::HealthMask mask) {
  if (!mask.empty() && mask.size() != topology_.num_nodes()) {
    throw std::invalid_argument(
        "EdgeHdSystem: health mask size must match the topology");
  }
  health_ = std::move(mask);
}

void EdgeHdSystem::set_fault_plan(const net::FaultPlan& plan,
                                  net::SimTime at) {
  set_health(net::HealthMask::snapshot(plan, topology_.num_nodes(), at));
  plan_ = plan;
  has_plan_ = true;
  if (config_.detector.enabled) {
    net::DetectorConfig dcfg = config_.detector;
    // Account each probe at its true wire size (the extended HealthProbe:
    // nonce, sent_at, incarnation, suspicion gossip).
    dcfg.probe_bytes = proto::wire_size(proto::HealthProbe{});
    detector_ = std::make_unique<net::FailureDetector>(topology_, plan_, dcfg);
    // Every delivered probe rides the LocalBus as a real HealthProbe
    // envelope. No session charge scope is attached here, so detection
    // traffic never touches the per-phase CommStats — it is accounted in
    // net.detector.* (and the proto.health_probe.* type counters).
    detector_->set_probe_sink([this](
        const net::FailureDetector::ProbeDelivery& d) {
      bus_->post(proto::Envelope{
          proto::kProtoVersion, d.from, d.to,
          proto::HealthProbe{d.nonce, static_cast<std::uint64_t>(d.at),
                             d.incarnation, d.suspects}});
    });
    // Analytic (non-event-driven) callers consult the detector right after
    // installing the plan, so give it a detection horizon: beliefs converge
    // to the plan's state at `at` before the first protocol runs.
    detector_->advance(at + dcfg.warmup);
  }
}

void EdgeHdSystem::clear_health() {
  health_ = {};
  detector_.reset();
  has_plan_ = false;
}

net::Liveness EdgeHdSystem::liveness() const noexcept {
  return {&health_, detector_ ? &detector_->view() : nullptr};
}

void EdgeHdSystem::advance_detector(net::SimTime now) {
  if (!detector_) return;
  detector_->advance(now);
  // The world moves with the detector's clock, so beliefs and the world
  // describe the same instant (a revived node computes again).
  set_health(net::HealthMask::snapshot(plan_, topology_.num_nodes(), now));
}

CommStats EdgeHdSystem::rejoin_node(NodeId node,
                                    std::optional<std::uint64_t> incarnation) {
  if (!train_source_) {
    throw std::logic_error("EdgeHdSystem: rejoin_node before any training");
  }
  std::uint64_t inc;
  if (incarnation.has_value()) {
    inc = *incarnation;
  } else if (detector_) {
    inc = detector_->view().incarnation(node);
  } else {
    throw std::invalid_argument(
        "EdgeHdSystem: rejoin_node needs an explicit incarnation without a "
        "detector");
  }
  const CommStats comm =
      proto::run_rejoin(session_context(), node, inc);
  CoreObs::get().rejoin_bytes.inc(comm.bytes);
  CoreObs::get().rejoin_messages.inc(comm.messages);
  return comm;
}

CommStats EdgeHdSystem::announce_leave(NodeId node, bool planned) {
  const std::uint64_t inc =
      detector_ ? detector_->view().incarnation(node) : 0;
  return proto::announce_leave(session_context(), node, inc, planned);
}

std::vector<BipolarHV> EdgeHdSystem::encode_all(
    std::span<const float> x, const net::HealthMask& world) const {
  if (x.size() != ds_.num_features) {
    throw std::invalid_argument("EdgeHdSystem: feature count mismatch");
  }
  const net::Liveness live(&world, nullptr);
  std::vector<BipolarHV> hvs(topology_.num_nodes());
  for (NodeId id : topology_.bottom_up()) {
    const proto::NodeRuntime& rt = nodes_[id];
    if (!live.node_up(id)) {
      hvs[id] = BipolarHV(rt.dim(), 0);
      continue;
    }
    if (topology_.is_leaf(id)) {
      const std::size_t offset = ds_.partition_offset(rt.partition());
      hvs[id] = rt.leaf_encoder().encode(
          x.subspan(offset, ds_.partitions[rt.partition()]));
    } else {
      const auto& kids = topology_.children(id);
      std::vector<BipolarHV> child_hvs(kids.size());
      for (std::size_t c = 0; c < kids.size(); ++c) {
        if (live.delivers(kids[c])) {
          child_hvs[c] = hvs[kids[c]];
        } else {
          child_hvs[c].assign(nodes_[kids[c]].dim(), 0);
        }
      }
      hvs[id] = rt.aggregator().aggregate(child_hvs);
    }
  }
  return hvs;
}

std::vector<std::size_t> EdgeHdSystem::effective_indices(
    std::span<const std::size_t> train_indices) const {
  if (!train_indices.empty()) {
    return {train_indices.begin(), train_indices.end()};
  }
  std::vector<std::size_t> all(ds_.train_size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

void EdgeHdSystem::ensure_train_encoded(
    std::span<const std::size_t> train_indices) {
  std::vector<std::size_t> idx = effective_indices(train_indices);
  if (train_source_ == idx) return;

  train_labels_.resize(idx.size());
  for (std::size_t s = 0; s < idx.size(); ++s) {
    train_labels_[s] = ds_.train_y[idx[s]];
  }
  for (NodeId leaf : leaves_) {
    proto::NodeRuntime& rt = nodes_[leaf];
    rt.load_training(leaf_slices(ds_, rt.partition(), ds_.train_x,
                                 std::span<const std::size_t>(idx)),
                     train_labels_, *pool_);
  }
  train_source_ = std::move(idx);
}

void EdgeHdSystem::ensure_test_encoded() const {
  if (!encoded_test_.empty()) return;
  // Level by level, all healthy: each leaf encodes the whole test split in
  // one batch, then each aggregating node aggregates its children's rows in
  // one encode_batch. Only classifier nodes are evaluated, so only their
  // rows are kept; every other node's rows are consumed by its parent.
  const std::size_t n = ds_.test_size();
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::vector<std::vector<BipolarHV>> rows(topology_.num_nodes());
  for (NodeId id : topology_.bottom_up()) {
    const proto::NodeRuntime& rt = nodes_[id];
    if (topology_.is_leaf(id)) {
      rows[id] = rt.leaf_encoder().encode_batch(
          leaf_slices(ds_, rt.partition(), ds_.test_x,
                      std::span<const std::size_t>(all)),
          *pool_);
      continue;
    }
    const auto& kids = topology_.children(id);
    std::vector<std::vector<BipolarHV>> entries(n);
    for (std::size_t s = 0; s < n; ++s) {
      for (NodeId kid : kids) {
        entries[s].push_back(has_classifier(kid) ? rows[kid][s]
                                                 : std::move(rows[kid][s]));
      }
    }
    for (NodeId kid : kids) {
      if (!has_classifier(kid)) rows[kid] = {};
    }
    rows[id] = rt.aggregator().encode_batch(std::move(entries), *pool_);
  }
  encoded_test_.assign(topology_.num_nodes(), {});
  packed_test_.assign(topology_.num_nodes(), {});
  for (NodeId id = 0; id < topology_.num_nodes(); ++id) {
    if (!has_classifier(id)) continue;
    // Classifier nodes also keep each query packed for the popcount
    // similarity path.
    encoded_test_[id] = std::move(rows[id]);
    packed_test_[id].resize(n);
    runtime::parallel_for(*pool_, n, [&](std::size_t s) {
      packed_test_[id][s] = hdc::kernels::pack_query(encoded_test_[id][s]);
    });
  }
}

// ---- training: thin wrappers over the protocol sessions --------------------

CommStats EdgeHdSystem::train(std::span<const std::size_t> train_indices) {
  CommStats total = train_initial(train_indices);
  total += retrain_batches(train_indices);
  if (config_.regen_dims > 0) {
    for (std::size_t r = 0; r < config_.regen_rounds; ++r) {
      total += regenerate_dimensions(config_.regen_dims,
                                     static_cast<std::uint32_t>(r + 1));
      total += retrain_batches(train_indices);
    }
  }
  return total;
}

CommStats EdgeHdSystem::train_initial(
    std::span<const std::size_t> train_indices) {
  const obs::Span span("core.train_initial");
  ensure_train_encoded(train_indices);
  const CommStats comm =
      proto::run_initial_training(session_context());
  CoreObs::get().train_initial_bytes.inc(comm.bytes);
  CoreObs::get().train_initial_messages.inc(comm.messages);
  return comm;
}

CommStats EdgeHdSystem::retrain_batches(
    std::span<const std::size_t> train_indices) {
  const obs::Span span("core.retrain");
  ensure_train_encoded(train_indices);
  const CommStats comm =
      proto::run_batch_retraining(session_context());
  CoreObs::get().retrain_bytes.inc(comm.bytes);
  CoreObs::get().retrain_messages.inc(comm.messages);
  return comm;
}

CommStats EdgeHdSystem::regenerate_dimensions(std::size_t k,
                                              std::uint32_t round) {
  if (!train_source_) {
    throw std::logic_error(
        "EdgeHdSystem: regenerate_dimensions before any training");
  }
  const obs::Span span("core.regen");
  const CommStats comm =
      proto::run_dimension_regeneration(session_context(), k, round);
  CoreObs::get().regen_bytes.inc(comm.bytes);
  CoreObs::get().regen_messages.inc(comm.messages);

  // The regenerated leaves patched their own training encodings; the test
  // cache still holds encodings under the old projections.
  encoded_test_.clear();
  packed_test_.clear();
  return comm;
}

std::size_t EdgeHdSystem::leaf_projection_bytes() const {
  std::size_t total = 0;
  for (NodeId leaf : leaves_) {
    total += nodes_[leaf].leaf_encoder().projection_resident_bytes();
  }
  return total;
}

double EdgeHdSystem::accuracy_at_node(NodeId id) const {
  const auto& clf = classifier_at(id);
  ensure_test_encoded();
  return clf.accuracy(packed_test_[id], ds_.test_y, *pool_);
}

double EdgeHdSystem::accuracy_at_level(std::size_t level) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (NodeId id : topology_.nodes_at_level(level)) {
    if (!has_classifier(id)) continue;
    sum += accuracy_at_node(id);
    ++count;
  }
  if (count == 0) {
    throw std::invalid_argument("EdgeHdSystem: no classifiers at this level");
  }
  return sum / static_cast<double>(count);
}

double EdgeHdSystem::mean_confidence_at_node(NodeId id) const {
  const auto& clf = classifier_at(id);
  ensure_test_encoded();
  const auto preds = clf.predict_batch(packed_test_[id], *pool_);
  double sum = 0.0;
  for (const auto& pred : preds) sum += pred.confidence;
  return preds.empty() ? 0.0 : sum / static_cast<double>(preds.size());
}

double EdgeHdSystem::mean_confidence_at_level(std::size_t level) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (NodeId id : topology_.nodes_at_level(level)) {
    if (!has_classifier(id)) continue;
    sum += mean_confidence_at_node(id);
    ++count;
  }
  if (count == 0) {
    throw std::invalid_argument("EdgeHdSystem: no classifiers at this level");
  }
  return sum / static_cast<double>(count);
}

// ---- routed inference ------------------------------------------------------

std::uint64_t EdgeHdSystem::query_gather_bytes(NodeId id) const {
  proto::RoutingContext ctx = routing_context();
  ctx.liveness = net::Liveness{};  // the all-healthy charge
  return proto::settle(ctx, id).bytes;
}

RoutedResult EdgeHdSystem::infer_routed(std::span<const float> x,
                                        NodeId start) const {
  std::vector<BipolarHV> hvs;
  return route(x, start, hvs);
}

RoutedResult EdgeHdSystem::route(std::span<const float> x, NodeId start,
                                 std::vector<BipolarHV>& hvs) const {
  if (!has_classifier(start)) {
    throw std::invalid_argument("EdgeHdSystem: start node hosts no classifier");
  }
  const proto::RoutingContext ctx = routing_context();
  RoutedResult result;
  if (!ctx.liveness.origin_up(start)) {
    // The query's origin is physically dead; nobody can even pose the
    // question (and there is nothing worth encoding).
    result.degraded = true;
  } else {
    auto& tracer = obs::Tracer::global();
    const std::uint64_t span =
        tracer.begin("core.infer_routed", obs::kAutoTime, 0, start);
    hvs = encode_all(x, health_);
    tracer.instant("core.encode", obs::kAutoTime, span);
    result = proto::route_query(ctx, hvs, start, /*query_id=*/0, span);
    tracer.end(span);
  }
  record_routed(result);
  if (result.served()) node_serves_[result.node].inc();
  return result;
}

std::vector<RoutedResult> EdgeHdSystem::infer_routed_batch(
    std::span<const std::vector<float>> xs, NodeId start) const {
  if (!has_classifier(start)) {
    throw std::invalid_argument("EdgeHdSystem: start node hosts no classifier");
  }
  // Per-query predicts inside the fan-out hit the classifiers' packed-plane
  // caches; warm them all up front — lazy rebuilds are not thread-safe.
  for (const proto::NodeRuntime& rt : nodes_) {
    if (rt.has_classifier()) rt.classifier().warm_cache();
  }
  const runtime::BatchExecutor exec(*pool_);
  return exec.map(xs.size(), [&](std::size_t i) {
    // Counters aggregate deterministically from any thread; trace events
    // would interleave nondeterministically, so the fan-out emits none.
    const obs::TraceSuppress no_trace;
    return infer_routed(xs[i], start);
  });
}

// ---- query serving (src/serve) ---------------------------------------------

std::unique_ptr<serve::Engine> EdgeHdSystem::serve_start(
    const serve::ServeConfig& cfg) const {
  // Batched prediction inside the engine's service loop hits the packed
  // classifier caches from pool threads; warm them all up front.
  for (const proto::NodeRuntime& rt : nodes_) {
    if (rt.has_classifier()) rt.classifier().warm_cache();
  }
  serve::Bindings b;
  b.ctx = routing_context();
  b.detector = config_.detector;
  b.pool = pool_.get();
  b.num_samples = ds_.test_size();
  b.labels = ds_.test_y;
  b.encode_leaf_batch = [this](NodeId leaf,
                               std::span<const std::uint64_t> samples) {
    const proto::NodeRuntime& rt = nodes_[leaf];
    return rt.leaf_encoder().encode_batch(
        leaf_slices(ds_, rt.partition(), ds_.test_x, samples), *pool_);
  };
  b.encode_all = [this](std::uint64_t sample, const net::HealthMask& world) {
    return encode_all(ds_.test_x[sample], world);
  };
  const CoreObs& o = CoreObs::get();
  b.routed_queries = o.routed_queries;
  b.routed_degraded = o.routed_degraded;
  b.routed_unserved = o.routed_unserved;
  b.routed_bytes = o.routed_bytes;
  b.routed_retry_bytes = o.routed_retry_bytes;
  b.routed_confidence = o.confidence;
  b.node_serves = node_serves_;
  return std::make_unique<serve::Engine>(cfg, std::move(b));
}

serve::ServeReport EdgeHdSystem::serve_run(const serve::ServeConfig& cfg,
                                           const serve::LoadSpec& load) const {
  return serve_start(cfg)->run(load);
}

serve::ServeReport EdgeHdSystem::serve_run(const serve::ServeConfig& cfg,
                                           const serve::LoadSpec& load,
                                           const net::FaultPlan& plan) const {
  auto engine = serve_start(cfg);
  engine->set_fault_plan(plan);
  return engine->run(load);
}

serve::ServeReport EdgeHdSystem::serve_run(
    const serve::ServeConfig& cfg, const serve::ClosedLoopSpec& load) const {
  return serve_start(cfg)->run(load);
}

// ---- online learning -------------------------------------------------------

RoutedResult EdgeHdSystem::online_serve(std::span<const float> x,
                                        std::size_t truth, NodeId start) {
  std::vector<BipolarHV> hvs;
  const RoutedResult result = route(x, start, hvs);
  if (result.served() && result.label != truth) {
    // The user rejects the answer; only the wrongly matched class is known.
    // Under a health mask the feedback targets the hypervector the serving
    // node actually saw (with unreachable contributions silenced).
    for (std::size_t w = 0; w < config_.feedback_weight; ++w) {
      nodes_[result.node].classifier().feedback_negative(result.label,
                                                         hvs[result.node]);
    }
  }
  return result;
}

CommStats EdgeHdSystem::propagate_residuals() {
  const CommStats comm = proto::run_residual_propagation(session_context());
  // Model changes invalidate nothing cached (encodings are model-free), so
  // no cache flush is needed.
  CoreObs::get().residual_bytes.inc(comm.bytes);
  CoreObs::get().residual_messages.inc(comm.messages);
  return comm;
}

CommStats EdgeHdSystem::reintegrate_stragglers() {
  const CommStats comm = proto::run_reintegration(session_context());
  CoreObs::get().reintegrate_bytes.inc(comm.bytes);
  CoreObs::get().reintegrate_messages.inc(comm.messages);
  return comm;
}

// ---- payload-level fault injection (Figure 12) -----------------------------

namespace {

/// Classifies every damaged test vector produced by `damage(hv)` and
/// returns the accuracy.
template <typename DamageFn>
double accuracy_under_damage(const hdc::HDClassifier& clf,
                             const std::vector<BipolarHV>& encoded,
                             const std::vector<std::size_t>& labels,
                             DamageFn damage) {
  std::size_t correct = 0;
  for (std::size_t s = 0; s < encoded.size(); ++s) {
    BipolarHV damaged = encoded[s];
    damage(damaged);
    const auto sims = clf.similarities(damaged);
    const auto best = static_cast<std::size_t>(
        std::max_element(sims.begin(), sims.end()) - sims.begin());
    if (best == labels[s]) ++correct;
  }
  return encoded.empty() ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(encoded.size());
}

}  // namespace

double EdgeHdSystem::accuracy_at_node_with_loss(NodeId id, double loss,
                                                std::uint64_t seed) const {
  if (loss < 0.0 || loss > 1.0) {
    throw std::invalid_argument("EdgeHdSystem: loss fraction out of range");
  }
  const auto& clf = classifier_at(id);
  ensure_test_encoded();
  hdc::Rng rng(derive_seed(seed, id));
  return accuracy_under_damage(
      clf, encoded_test_[id], ds_.test_y, [&](BipolarHV& hv) {
        for (auto& v : hv) {
          if (rng.bernoulli(loss)) v = 0;  // lost dim carries no signal
        }
      });
}

double EdgeHdSystem::accuracy_at_node_with_burst_loss(
    NodeId id, double loss, std::size_t burst_len, std::uint64_t seed) const {
  if (loss < 0.0 || loss > 1.0) {
    throw std::invalid_argument("EdgeHdSystem: loss fraction out of range");
  }
  if (burst_len == 0) {
    throw std::invalid_argument("EdgeHdSystem: burst length must be positive");
  }
  const auto& clf = classifier_at(id);
  ensure_test_encoded();
  hdc::Rng rng(derive_seed(seed, id ^ 0x9e37ULL));
  return accuracy_under_damage(
      clf, encoded_test_[id], ds_.test_y, [&](BipolarHV& hv) {
        const auto target = static_cast<std::size_t>(
            loss * static_cast<double>(hv.size()));
        std::size_t erased = 0;
        // Drop whole "packets": contiguous runs at random offsets. Bursts
        // may overlap, as retransmission-free links behave.
        while (erased + burst_len / 2 < target) {
          const std::size_t start = rng.index(hv.size());
          for (std::size_t k = 0; k < burst_len; ++k) {
            auto& v = hv[(start + k) % hv.size()];
            if (v != 0) {
              v = 0;
              ++erased;
            }
          }
        }
      });
}

}  // namespace edgehd::core
