// EdgeHD: hierarchy-aware distributed HD learning (paper Sections IV–V).
//
// An EdgeHdSystem owns one deployment: a dataset whose features are
// partitioned over the leaves of a topology, a hypervector dimensionality
// allocation (d_i = D * n_i / n), per-leaf non-linear encoders, per-internal-
// node hierarchical aggregators, and a class-hypervector classifier at every
// node from `classify_min_level` up. It implements the paper's four
// protocols:
//
//   * initial training   — leaves bundle local class hypervectors; parents
//                          aggregate the *models* (not the data) with the
//                          hierarchical encoder (Section IV-B);
//   * batch retraining   — per-class batch hypervectors of size B travel up
//                          and drive perceptron updates at every level
//                          (Section IV-B);
//   * routed inference   — a query is answered at the lowest node whose
//                          softmax confidence clears the threshold,
//                          escalating level by level otherwise; query
//                          hypervectors ship compressed m-to-1 (IV-C);
//   * online updating    — negative feedback accumulates in residual
//                          hypervectors that are applied locally and
//                          propagated up the hierarchy in bulk (IV-D).
//
// Every protocol reports the bytes it placed on the network, which is the
// quantity the paper's evaluation normalizes against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hier/dim_allocation.hpp"
#include "hier/hier_encoder.hpp"
#include "net/detector.hpp"
#include "net/fault.hpp"
#include "net/liveness.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "proto/bus.hpp"
#include "proto/node_runtime.hpp"
#include "proto/routing.hpp"
#include "proto/sessions.hpp"
#include "proto/types.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/engine.hpp"

namespace edgehd::core {

/// How routed inference behaves when the hierarchy is partially down
/// (see DESIGN.md §6). Escalation always stops at the deepest *reachable*
/// classifier; these knobs govern the edge cases around that rule.
struct FailoverPolicy {
  /// A query that wants to escalate past a dead ancestor is served at the
  /// deepest reachable classifier with `degraded = true`. When false, such
  /// queries are reported unserved (RoutedResult::node == net::kNoNode)
  /// instead — the fail-fast mode for callers that prefer an explicit error
  /// over a low-confidence answer.
  bool serve_degraded = true;
};

/// Deployment-wide configuration (defaults are the paper's Section VI-A
/// operating point).
struct SystemConfig {
  std::size_t total_dim = 4000;        ///< D at the central node
  std::size_t min_node_dim = 32;       ///< dimension floor for tiny slices
  std::size_t batch_size = 75;         ///< B, retraining batch size
  std::size_t compression = 25;        ///< m, query hypervectors per bundle
  double confidence_threshold = 0.75;  ///< routed-inference escalation bar
  std::size_t retrain_epochs = 20;
  std::uint64_t seed = 7;
  hier::AggregationMode aggregation = hier::AggregationMode::kHolographic;
  std::size_t projection_row_nnz = 64;
  hdc::EncoderKind leaf_encoder = hdc::EncoderKind::kRbfSparse;
  /// Leaf projection draws (DESIGN.md §14). kStored (default) keeps the
  /// legacy resident rows and their historical RNG draws — the golden e2e
  /// byte pins depend on them. kDeterministic derives rows from counter-based
  /// streams, resident or streamed per projection_budget_bytes.
  hdc::ProjectionMode projection_mode = hdc::ProjectionMode::kStored;
  /// Per-leaf byte budget for counter-derived projection rows (kDeterministic
  /// only): a leaf whose rows, biases and window starts fit keeps them
  /// resident; a larger one — or every leaf at budget 0, the memory-
  /// constrained device — re-derives 256-row chunks per encode. Encodings
  /// are bit-identical either way. The default covers every Table-I leaf.
  std::size_t projection_budget_bytes = hdc::kDefaultProjectionBudgetBytes;
  /// Adaptive dimensionality: dimensions regenerated per round (0 = off —
  /// the default, keeping every legacy byte flow untouched). Both
  /// projection modes regenerate; regenerated rows are counter-derived.
  std::size_t regen_dims = 0;
  /// Regeneration rounds run by train() after retraining (each round is a
  /// score -> regenerate -> patch-propagate -> retrain cycle).
  std::size_t regen_rounds = 1;
  /// Lowest hierarchy level hosting classifiers (1 = end nodes classify; the
  /// PECAN deployment classifies from the house level, i.e. 2).
  std::size_t classify_min_level = 1;
  /// Softmax sharpening over cosine similarities; 64 calibrates mean
  /// confidence to per-level accuracy on the tested workloads.
  double softmax_beta = 64.0;
  /// Online learning rate: each negative feedback subtracts the query this
  /// many times from the rejected class. Section IV-D uses weight 1; 2 is a
  /// mild amplification that moves scaled-down models without the
  /// oscillation that aggressive subtract-only updates cause when feedback
  /// concentrates on one node.
  std::size_t feedback_weight = 2;
  /// Worker threads for batch encoding / inference. 0 resolves through
  /// runtime::ThreadPool::default_worker_count() (the EDGEHD_THREADS env
  /// override, else hardware concurrency). Every parallel path is
  /// bit-identical across worker counts, so this is purely a speed knob.
  std::size_t num_threads = 0;
  /// Degraded-operation policy for routed inference under faults.
  FailoverPolicy failover;
  /// Heartbeat failure detection (DESIGN.md §11). Off by default: faults are
  /// then judged by the oracle HealthMask exactly as before. When enabled,
  /// set_fault_plan builds a FailureDetector and every protocol decision
  /// (routing, sessions, serving) runs on its earned SuspicionView; the
  /// oracle survives only as world simulation (a dead origin cannot query).
  net::DetectorConfig detector;
  /// Reliable-transport retry policy for simulator-backed deployments of
  /// this system (net::Simulator::send_reliable). Routed inference charges a
  /// lossy hop with loss p the expected (1-p^(R+1))/(1-p) transmissions per
  /// packet under R = reliable.max_retries.
  net::ReliableConfig reliable;
};

/// Bytes/messages a protocol phase placed on the network. Re-exported from
/// the protocol layer, which owns the canonical wire accounting (see
/// src/proto/types.hpp).
using CommStats = proto::CommStats;

/// Outcome of one routed inference (re-exported from the protocol layer;
/// see src/proto/types.hpp). `node == net::kNoNode` after the call means
/// the query could not be served at all.
using RoutedResult = proto::RoutedResult;

/// Scales the paper's batch size B to a scaled-down training-set size so the
/// batch-count-to-data ratio matches the paper-scale deployment:
/// B' = max(1, round(B * actual_train / paper_train)). Benches that shrink
/// Table-I workloads use this to keep the retraining protocol comparable.
std::size_t scaled_batch_size(std::size_t paper_batch, std::size_t paper_train,
                              std::size_t actual_train);

/// One EdgeHD deployment over a dataset and a topology.
///
/// Since the protocol extraction (DESIGN.md §9) this class is a thin
/// facade: it owns configuration, dataset plumbing, encoding memoization,
/// batch fan-out and stats aggregation, while the four protocols themselves
/// run as typed-envelope exchanges between per-node proto::NodeRuntime
/// state machines over a proto::LocalBus (src/proto). The observable
/// behaviour — accuracies, escalation counts, per-phase byte totals — is
/// bit-identical to the pre-extraction monolith.
class EdgeHdSystem {
 public:
  /// The topology's leaf count must equal ds.partitions.size(); leaf i (in
  /// leaves() order) observes feature slice i.
  EdgeHdSystem(const data::Dataset& ds, net::Topology topology,
               SystemConfig config = {});

  const net::Topology& topology() const noexcept { return topology_; }
  const SystemConfig& config() const noexcept { return config_; }
  /// Resolved worker count of the system's thread pool.
  std::size_t worker_count() const noexcept { return pool_->size(); }
  std::size_t node_dim(net::NodeId id) const;
  bool has_classifier(net::NodeId id) const;
  const hdc::HDClassifier& classifier_at(net::NodeId id) const;

  // ---- encoding ----------------------------------------------------------

  /// Encodes a full feature vector at every node of the hierarchy (leaf
  /// encoders at the leaves, hierarchical aggregation above). Indexed by
  /// NodeId. Under a `world` mask, a crashed node emits silence (all-zero
  /// components, the Figure-12 "no signal" convention) and a child whose
  /// contribution cannot reach its parent is silenced there, so degradation
  /// cascades as a real partition would; an empty or all-healthy mask
  /// silences nothing.
  std::vector<hdc::BipolarHV> encode_all(
      std::span<const float> x, const net::HealthMask& world = {}) const;

  // ---- training ------------------------------------------------------------

  /// Initial training + batch retraining on the dataset's train split (or
  /// the index subset if given). Returns total protocol bytes.
  CommStats train(std::span<const std::size_t> train_indices = {});

  /// Phase 1 only: local class-hypervector bundling + model aggregation.
  CommStats train_initial(std::span<const std::size_t> train_indices = {});

  /// Phase 2 only: batch-hypervector retraining at every level.
  CommStats retrain_batches(std::span<const std::size_t> train_indices = {});

  /// Adaptive dimensionality (DESIGN.md §14): scores the deployed models,
  /// regenerates the k least discriminating encoder dimensions at the
  /// leaves, and propagates the per-class deltas up the hierarchy as
  /// k-column DimensionPatch envelopes (proto::run_dimension_regeneration).
  /// Each regenerated leaf patches the k columns into its own training
  /// encodings, so nothing is re-encoded; only the test cache is dropped.
  /// Requires a prior training pass. train() drives this automatically when
  /// SystemConfig::regen_dims > 0.
  CommStats regenerate_dimensions(std::size_t k, std::uint32_t round = 1);

  /// Resident projection bytes summed over the leaf encoders (the memory
  /// the deterministic projection mode eliminates).
  std::size_t leaf_projection_bytes() const;

  // ---- evaluation ----------------------------------------------------------

  /// Accuracy of node `id`'s model on the test split (the node sees only its
  /// subtree's features, as deployed).
  double accuracy_at_node(net::NodeId id) const;

  /// Mean accuracy over all classifier nodes at `level` on the test split.
  double accuracy_at_level(std::size_t level) const;

  /// Mean softmax confidence of node `id` over the test split.
  double mean_confidence_at_node(net::NodeId id) const;

  /// Mean confidence over all classifier nodes at `level`.
  double mean_confidence_at_level(std::size_t level) const;

  // ---- routed inference -----------------------------------------------------

  /// Classifies `x` starting at `start` and escalating to ancestors while
  /// the confidence is below the threshold (Section IV-C).
  RoutedResult infer_routed(std::span<const float> x, net::NodeId start) const;

  /// Batched routed inference: fans the queries over the system's thread
  /// pool. Each query runs the identical single-query protocol (same
  /// escalation walk, same per-node byte accounting), so the results —
  /// including every `bytes` field — are bit-identical to calling
  /// infer_routed in a loop, for any worker count. Output order is input
  /// order.
  std::vector<RoutedResult> infer_routed_batch(
      std::span<const std::vector<float>> xs, net::NodeId start) const;

  /// Amortized bytes to gather one query hypervector at node `id` from its
  /// subtree's leaves, with m-to-1 compression on every hop.
  std::uint64_t query_gather_bytes(net::NodeId id) const;

  // ---- query serving (src/serve, DESIGN.md §10) ----------------------------

  /// Builds a serving engine over this deployment: per-node bounded
  /// admission queues, dynamic micro-batching through the packed kernels,
  /// async escalation sessions. The query pool is the dataset's test split
  /// (`sample` indices passed to Engine::submit / drawn by a load generator
  /// index it). Classifier caches are warmed here so batch prediction is
  /// thread-safe. The engine borrows this system — keep the system alive and
  /// unmodified while the engine runs. Faults come from the engine's own
  /// FaultPlan (Engine::set_fault_plan), not from set_health: the serving
  /// plane re-snapshots health as virtual time advances.
  std::unique_ptr<serve::Engine> serve_start(
      const serve::ServeConfig& cfg) const;

  /// Convenience: serve one open-loop generated workload to completion.
  serve::ServeReport serve_run(const serve::ServeConfig& cfg,
                               const serve::LoadSpec& load) const;
  /// Open loop under a fault timeline.
  serve::ServeReport serve_run(const serve::ServeConfig& cfg,
                               const serve::LoadSpec& load,
                               const net::FaultPlan& plan) const;
  /// Closed loop (think-time clients).
  serve::ServeReport serve_run(const serve::ServeConfig& cfg,
                               const serve::ClosedLoopSpec& load) const;

  // ---- online learning ------------------------------------------------------

  /// Serves one online sample: routed inference from `start`, then negative
  /// feedback at the serving node if the prediction does not match `truth`
  /// (the user-rejection model of Section VI-C).
  RoutedResult online_serve(std::span<const float> x, std::size_t truth,
                            net::NodeId start);

  /// Applies all residual hypervectors locally and propagates them up the
  /// hierarchy (Figure 5b). Returns bytes spent on residual transfer.
  CommStats propagate_residuals();

  // ---- fault awareness (transport-level degradation) -----------------------

  /// Installs a connectivity snapshot. Protocols run after this call skip
  /// crashed nodes, aggregate only the child contributions whose path is up,
  /// and route inference over reachable nodes only. An all-healthy mask
  /// changes nothing: results are bit-identical to never having set a mask.
  void set_health(net::HealthMask mask);

  /// Convenience: snapshot `plan` at instant `at` and install it.
  void set_fault_plan(const net::FaultPlan& plan, net::SimTime at = 0);

  /// Restores full health (recovery). Pending straggler contributions stay
  /// recorded; call reintegrate_stragglers() to fold them in.
  void clear_health();

  const net::HealthMask& health() const noexcept { return health_; }

  /// True when the installed mask actually degrades something — or, in
  /// detector mode, when the detector currently suspects something.
  bool degraded_mode() const noexcept { return !liveness().all_healthy(); }

  // ---- failure detection & churn membership (DESIGN.md §11) ----------------

  /// The failure detector built by set_fault_plan when
  /// SystemConfig::detector.enabled; nullptr otherwise. Its SuspicionView is
  /// what every protocol consults in detector mode.
  const net::FailureDetector* detector() const noexcept {
    return detector_.get();
  }

  /// Advances the detector's virtual time (processing every heartbeat round
  /// up to `now`) and re-snapshots the installed plan's world at `now`.
  /// No-op without a detector.
  void advance_detector(net::SimTime now);

  /// Churn membership: re-syncs `node` after it was declared dead and came
  /// back (proto::run_rejoin — NodeJoin announcements, StateSync rebuild
  /// from the children's checkpoints, hop-by-hop lift to the root). The
  /// incarnation defaults to the detector's believed generation of the node
  /// (callers without a detector pass it explicitly). Exact for the linear
  /// phases; perceptron retraining state is re-synced by the next retraining
  /// round. Requires a prior training pass.
  CommStats rejoin_node(net::NodeId node,
                        std::optional<std::uint64_t> incarnation = {});

  /// Posts a NodeLeave announcement from `node` to its parent. Bookkeeping
  /// only — detection of the actual departure stays with the detector.
  CommStats announce_leave(net::NodeId node, bool planned);

  /// Nodes whose training-time contribution could not reach their parent
  /// under the current mask (recorded by the latest train_initial /
  /// retrain_batches pass, deepest-first).
  const std::vector<net::NodeId>& stragglers() const noexcept {
    return stragglers_;
  }

  /// Re-integrates straggler contributions recorded by train_initial once
  /// their path to the root is back up: each pending class-hypervector set
  /// is shipped upward and folded into every ancestor's model through the
  /// ancestor's aggregator (exact by linearity of the hierarchical
  /// encoding). Returns the bytes spent. Contributions whose path is still
  /// down stay pending.
  CommStats reintegrate_stragglers();

  // ---- fault injection (Figure 12, payload-level) --------------------------

  /// Test accuracy at node `id` when a random fraction `loss` of each query
  /// hypervector's dimensions is zeroed in transit (independent per-dim
  /// erasures).
  double accuracy_at_node_with_loss(net::NodeId id, double loss,
                                    std::uint64_t seed) const;

  /// Test accuracy at node `id` under *bursty* loss: contiguous runs of
  /// `burst_len` dimensions are erased until ~`loss` of the vector is gone,
  /// modelling dropped packets that each carry a contiguous dimension range.
  /// Under concatenation aggregation a burst wipes out one child's features
  /// wholesale; the holographic projection spreads every child across all
  /// dimensions, which is exactly the Figure 12 robustness argument.
  double accuracy_at_node_with_burst_loss(net::NodeId id, double loss,
                                          std::size_t burst_len,
                                          std::uint64_t seed) const;

 private:
  /// Loads each leaf's slice of the training samples into its runtime, which
  /// encodes it with the leaf encoder alone; a no-op while the index set is
  /// unchanged.
  void ensure_train_encoded(std::span<const std::size_t> train_indices);
  void ensure_test_encoded() const;

  /// The installed mask as the world, the detector's view (if any) as the
  /// beliefs. Built per call: the detector's view moves as it advances.
  net::Liveness liveness() const noexcept;

  std::vector<std::size_t> effective_indices(
      std::span<const std::size_t> train_indices) const;

  /// infer_routed's walk; `hvs` receives the query's per-node hypervectors
  /// (left empty when the origin is down), which online_serve's feedback
  /// reuses instead of encoding the query again.
  RoutedResult route(std::span<const float> x, net::NodeId start,
                     std::vector<hdc::BipolarHV>& hvs) const;

  // ---- protocol-layer views of this deployment ------------------------------
  /// Mutable view for a training-side session (sessions.hpp) — hands the
  /// protocol layer the bus, the health snapshot and the cross-phase state.
  proto::SessionContext session_context();
  /// Read-only view + policy knobs for query walks (routing.hpp).
  proto::RoutingContext routing_context() const;

  const data::Dataset& ds_;
  net::Topology topology_;
  SystemConfig config_;
  /// Per-node "core.routed.serves.node<id>" counters (escalation-rate
  /// numerators), interned once at construction so the hot routed path never
  /// builds a name.
  std::vector<obs::Counter> node_serves_;
  /// Pool for batch encode/inference fan-out; mutable because const
  /// evaluation paths (encoding memoization, batch inference) fan work over
  /// it without changing observable state.
  mutable std::unique_ptr<runtime::ThreadPool> pool_;
  hier::DimAllocation alloc_;
  /// One protocol state machine per hierarchy node, owning that node's
  /// encoder handles, classifier and protocol inboxes (src/proto).
  std::vector<proto::NodeRuntime> nodes_;
  /// Envelope delivery between the runtimes; every training-phase message
  /// round-trips the real wire codec in transit (LocalBus::Codec::kEncoded).
  std::unique_ptr<proto::LocalBus> bus_;
  std::vector<net::NodeId> leaves_;

  /// Dataset row of each loaded training sample; empty before the first
  /// training pass. The leaves hold the samples and their encodings.
  std::optional<std::vector<std::size_t>> train_source_;
  /// Class of each loaded training sample, borrowed by every leaf runtime
  /// and handed to the sessions.
  std::vector<std::size_t> train_labels_;
  /// Memoized test encodings, classifier nodes only: [node][sample].
  mutable std::vector<std::vector<hdc::BipolarHV>> encoded_test_;
  /// Pre-packed test queries (sign-mask pairs) per classifier node, built
  /// alongside encoded_test_ so repeated evaluation passes skip the per-call
  /// query pack and run straight on the popcount path.
  mutable std::vector<std::vector<hdc::kernels::PackedQuery>> packed_test_;

  // ---- degraded-operation state --------------------------------------------
  net::HealthMask health_;   ///< empty = all healthy
  /// The installed fault plan (stable storage for the detector's lifetime).
  net::FaultPlan plan_;
  bool has_plan_ = false;
  /// Built by set_fault_plan in detector mode; probes ride the LocalBus as
  /// real HealthProbe envelopes (outside any session's charge scope, so the
  /// per-phase CommStats totals never see detection traffic).
  std::unique_ptr<net::FailureDetector> detector_;
  std::vector<net::NodeId> stragglers_;
  /// Per-node class-hypervector contributions computed during train_initial
  /// but not yet delivered upstream (indexed by node; empty = nothing
  /// pending).
  std::vector<std::vector<hdc::AccumHV>> pending_contrib_;
  /// Residual bundles held back by propagate_residuals while the uplink was
  /// down; shipped by the next propagate that finds the path up.
  std::vector<std::vector<hdc::AccumHV>> pending_residuals_;
};

}  // namespace edgehd::core
