// Per-node protocol state machine.
//
// A NodeRuntime is one hierarchy node as the protocols see it: its role
// (leaf / gateway / central), its hypervector space (dim + encoder handles),
// its classifier (when its level hosts one), and its protocol inboxes. It
// advances by consuming delivered envelopes — on_envelope() files each
// message into the inbox of the phase the node is in — and by the phase
// transitions a session drives:
//
//        begin_<phase>()          on_envelope(...)        finish_<phase>()
//   Idle ───────────────▶ Phase ───────────────▶ Phase ───────────────▶ Idle
//
// begin_* clears the phase inboxes and arms the state machine;
// on_envelope() accepts exactly the message types the phase expects (a
// model-bearing message outside its phase is a protocol violation and
// throws); finish_* folds own work and inbox contributions together,
// updates the local model, and returns what the session may ship upward.
// The session — not the runtime — owns topology-wide decisions: who posts,
// who parks as a straggler, and in what order nodes close their phase
// (see sessions.hpp).
//
// Query traffic (QueryEscalate / QueryReply) deliberately does not flow
// through on_envelope: a query walk is reentrant per-query state handled by
// routing.hpp so batched inference can fan out across threads. A query
// envelope delivered here is only counted.
//
// A leaf owns its training data: the facade loads the leaf's feature slice
// of every training sample, the leaf encodes it once with its own encoder
// (no aggregation — internal nodes keep no training encodings), and every
// leaf finish_* step reads those encodings. Dimension regeneration patches
// them in place, so they always equal the current encoder's output.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "envelope.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hypervector.hpp"
#include "hier/hier_encoder.hpp"
#include "net/topology.hpp"
#include "runtime/thread_pool.hpp"

namespace edgehd::proto {

/// Per-class sample batches: [class][batch] -> encoded-sample indices. Built
/// once per retraining session and shared by every node so batch
/// hypervectors line up across the hierarchy.
using ClassBatches = std::vector<std::vector<std::vector<std::size_t>>>;

class NodeRuntime {
 public:
  /// Where the node sits in the hierarchy (paper Figure 1's three tiers).
  enum class Role : std::uint8_t {
    kLeaf,     ///< end node: encodes raw features
    kGateway,  ///< internal node: aggregates children
    kCentral,  ///< the root
  };

  /// Which protocol exchange the node is currently part of.
  enum class Phase : std::uint8_t {
    kIdle,
    kInitialTraining,
    kBatchRetraining,
    kResidualPropagation,
    kReintegration,
    kDimensionRegen,
  };

  NodeRuntime() = default;

  /// Binds the runtime to its place in the hierarchy. The topology must
  /// outlive the runtime.
  void init(net::NodeId id, const net::Topology& topology, std::size_t dim,
            std::size_t num_classes);

  // ---- identity -----------------------------------------------------------

  net::NodeId id() const noexcept { return id_; }
  Role role() const noexcept { return role_; }
  Phase phase() const noexcept { return phase_; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t num_classes() const noexcept { return num_classes_; }

  /// Leaf only: index of the dataset feature partition this node senses.
  std::size_t partition() const noexcept { return partition_; }
  void set_partition(std::size_t p) noexcept { partition_ = p; }

  // ---- model handles (installed by the facade at construction) ------------

  void install_leaf_encoder(std::unique_ptr<hdc::Encoder> enc);
  void install_aggregator(std::unique_ptr<hier::HierEncoder> agg);
  void install_classifier(std::unique_ptr<hdc::HDClassifier> clf);

  bool has_classifier() const noexcept { return classifier_ != nullptr; }
  const hdc::HDClassifier& classifier() const;
  hdc::HDClassifier& classifier();
  const hdc::Encoder& leaf_encoder() const;
  const hier::HierEncoder& aggregator() const;

  // ---- training data (leaves only) ---------------------------------------

  /// Leaf only. Replaces the training set: `slices[s]` is this leaf's
  /// feature partition of training sample s and `labels[s]` its class.
  /// Encodes every slice with the leaf encoder, fanned over `pool`
  /// (bit-identical to a per-sample encode for any worker count). `labels`
  /// is borrowed and must outlive the loaded set.
  void load_training(std::vector<std::vector<float>> slices,
                     std::span<const std::size_t> labels,
                     runtime::ThreadPool& pool);

  /// The loaded samples' encodings under the current encoder, in load order.
  std::span<const hdc::BipolarHV> train_encodings() const noexcept {
    return train_encoded_;
  }

  /// Classifier prediction on an encoded query. Const and thread-safe once
  /// the classifier cache is warm (HDClassifier::warm_cache).
  hdc::Prediction predict(std::span<const std::int8_t> query) const;

  // ---- envelope consumption -----------------------------------------------

  /// Consumes one delivered envelope. Model-bearing messages must arrive in
  /// their phase — ReducePartial in the phase its tag names (initial
  /// training, batch retraining, residual propagation, reintegration),
  /// StateSync in initial training (the rejoin rebuild) — from a
  /// topological child, with one section per class (per (class, batch) for
  /// batch retraining), each of the sender's dimension. Anything else,
  /// including a BatchUpdate (no phase takes one), throws std::logic_error.
  /// Query/probe messages are counted and dropped. Taken by value: the
  /// sections move into the inbox, so pass an rvalue to avoid a copy.
  void on_envelope(Envelope env);

  std::uint64_t probes_received() const noexcept { return probes_received_; }
  std::uint64_t queries_received() const noexcept { return queries_received_; }
  std::uint64_t joins_received() const noexcept { return joins_received_; }
  std::uint64_t leaves_received() const noexcept { return leaves_received_; }

  /// Highest incarnation heard from `node` via NodeJoin (0 = first life).
  std::uint64_t known_incarnation(net::NodeId node) const noexcept {
    return node < incarnations_.size() ? incarnations_[node] : 0;
  }

  /// The node's current class-accumulator state, for re-syncing a rejoined
  /// parent: the hosted classifier's accumulators when one exists, else the
  /// last initial-training shipment. Empty when the node never trained.
  std::vector<hdc::AccumHV> checkpoint_state() const;

  // ---- initial training (Section IV-B) ------------------------------------

  void begin_initial_training();

  /// Closes the phase: a leaf bundles its loaded samples per class; a
  /// gateway/central node aggregates the inbox (absent children contribute
  /// zeros). Installs the result into the classifier when one is hosted,
  /// else keeps a copy as the checkpoint, and returns the node's k class
  /// accumulators (what ships upward).
  ///
  /// Every internal-node finish step aggregates its whole class set in one
  /// HierEncoder::project_batch over `pool`; the result is the same for
  /// any worker count, and the call may run inside a pool task (the caller
  /// takes part in the nested loop).
  std::vector<hdc::AccumHV> finish_initial_training(runtime::ThreadPool& pool);

  // ---- batch retraining (Section IV-B) ------------------------------------

  /// `batches` must outlive the phase (the session owns it).
  void begin_batch_retraining(const ClassBatches& batches);

  /// Closes the phase: builds/aggregates the per-(class, batch)
  /// hypervectors, then retrains the hosted classifier — a leaf on its
  /// loaded per-sample encodings, an internal node on the binarized batch
  /// hypervectors in (class asc, batch asc) order. Returns the node's batch
  /// accumulators, [class][batch]; the node keeps no copy.
  std::vector<std::vector<hdc::AccumHV>> finish_batch_retraining(
      runtime::ThreadPool& pool);

  // ---- residual propagation (Section IV-D, Figure 5b) ---------------------

  void begin_residual_propagation();

  /// Closes the phase: aggregates children's delivered residuals (only if at
  /// least one arrived), folds in this node's own queued residuals, applies
  /// the combined bundle to the local model, and returns it as this round's
  /// upward shipment (all-zero when there is nothing to report).
  std::vector<hdc::AccumHV> finish_residual_propagation(
      runtime::ThreadPool& pool);

  // ---- straggler reintegration --------------------------------------------

  void begin_reintegration();

  /// Closes one reintegration hop: lifts the delta delivered by `child`
  /// through this node's aggregator (zeros in every other child slot), folds
  /// the lifted delta into the hosted classifier's class accumulators, and
  /// returns it for the next hop up. Exact by linearity of the hierarchical
  /// encoding.
  std::vector<hdc::AccumHV> finish_reintegration(net::NodeId child,
                                                 runtime::ThreadPool& pool);

  // ---- adaptive dimensionality (DESIGN.md §14) -----------------------------

  void begin_dimension_regen(std::uint32_t round);

  /// Installs the set of own-space dimensions this node must regenerate
  /// (ascending). Used by the session for the scoring root (concatenation
  /// mode) and for self-scoring leaves (holographic mode); every other node
  /// receives its assignment as a DimensionPatch request via on_envelope.
  void set_regen_request(std::vector<std::uint32_t> dims);
  const std::vector<std::uint32_t>& regen_request() const noexcept {
    return regen_request_;
  }

  /// Leaf only. Re-derives the requested projection rows, re-encodes exactly
  /// those dimensions of every loaded sample, writes them into the stored
  /// encodings, folds the per-class delta into its own accumulators and
  /// hosted classifier, and returns the patch to ship upward (empty dims
  /// when nothing was requested).
  DimensionPatch finish_dimension_regen_leaf();

  /// Internal node. Lifts the delivered child patches through the
  /// aggregator (zeros everywhere a child did not patch), applies the lifted
  /// per-class delta in place to its own accumulators and hosted classifier,
  /// and returns the merged patch for the next hop up. In concatenation mode
  /// child dimensions map 1:1 into this node's space so generation counters
  /// are carried; in holographic mode the delta densifies and generations
  /// reset to 0 (the projection mixes rows, so no single source generation
  /// applies).
  DimensionPatch finish_dimension_regen_internal(runtime::ThreadPool& pool);

 private:
  std::size_t child_index(net::NodeId child) const;
  std::size_t child_dim(std::size_t child_idx) const;
  /// Index of sender `src` among this node's children; throws unless `src`
  /// is a child and every section has that child's dimension (an empty
  /// section would otherwise file as an absent contribution).
  std::size_t checked_child(net::NodeId src,
                            const std::vector<hdc::AccumHV>& sections,
                            const char* what) const;
  /// Moves a child's k class accumulators into the class inbox; throws
  /// unless there is exactly one section per class (and see checked_child).
  void file_class_set(net::NodeId src, std::vector<hdc::AccumHV>&& sections,
                      const char* what);
  /// Aggregates every class across the child inbox in one batch (moving the
  /// sections out), zeros where absent.
  std::vector<hdc::AccumHV> aggregate_inbox(runtime::ThreadPool& pool);
  void require_phase(Phase expected, const char* what) const;
  /// Adds a patch's per-class columns to the node's model: the classifier
  /// when one is hosted, else the checkpoint.
  void apply_patch(const DimensionPatch& patch);

  net::NodeId id_ = net::kNoNode;
  const net::Topology* topology_ = nullptr;
  Role role_ = Role::kLeaf;
  Phase phase_ = Phase::kIdle;
  std::size_t dim_ = 0;
  std::size_t num_classes_ = 0;
  std::size_t partition_ = 0;

  std::unique_ptr<hdc::Encoder> leaf_encoder_;     // leaves only
  std::unique_ptr<hier::HierEncoder> aggregator_;  // internal only
  std::unique_ptr<hdc::HDClassifier> classifier_;  // level >= classify_min_level

  // ---- training data (leaves only; see load_training) ----------------------
  std::vector<std::vector<float>> train_slices_;
  std::vector<hdc::BipolarHV> train_encoded_;
  std::span<const std::size_t> train_labels_;  ///< borrowed from the loader

  // ---- phase workspaces ----------------------------------------------------
  /// Class-accumulator inbox, [child][class]; an empty AccumHV marks an
  /// absent contribution (initial training, residuals, reintegration).
  std::vector<std::vector<hdc::AccumHV>> inbox_;
  /// Batch inbox, [child][class][batch]; empty = absent.
  std::vector<std::vector<std::vector<hdc::AccumHV>>> batch_inbox_;
  const ClassBatches* batches_ = nullptr;  ///< session-owned, retraining only
  bool residual_any_child_ = false;        ///< any residual frame delivered?
  /// Dimension-regeneration workspace: the dims assigned to this node, the
  /// session round tag, and one delivered patch slot per child (empty dims
  /// marks an absent contribution).
  std::vector<std::uint32_t> regen_request_;
  std::uint32_t regen_round_ = 0;
  std::vector<DimensionPatch> patch_inbox_;
  std::vector<hdc::AccumHV> own_accums_;  ///< checkpoint if no classifier

  std::uint64_t probes_received_ = 0;
  std::uint64_t queries_received_ = 0;
  std::uint64_t joins_received_ = 0;
  std::uint64_t leaves_received_ = 0;
  /// Highest incarnation announced per node (indexed by NodeId); a
  /// StateSync bearing a lower incarnation than recorded here is rejected.
  std::vector<std::uint64_t> incarnations_;
};

}  // namespace edgehd::proto
