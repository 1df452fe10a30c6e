// Protocol sessions: the event loops that drive EdgeHD's training-side
// protocols as envelope exchanges between NodeRuntimes.
//
// Initial training, batch retraining, residual propagation and
// regeneration's upward pass are one upward reduce (the paper's
// synchronized rounds): the session arms every live node's phase, then
// closes the hierarchy level by level, leaves first. A level's nodes close
// concurrently on the facade's pool; the session then posts their results
// serially in node-id order, applying the topology-wide rules — a child
// posts to its parent iff the child, its uplink and the parent are all up;
// a cut-off child parks its contribution as a straggler. The synchronous
// LocalBus files each frame into the parent's inbox before the parent's
// level closes, and sees the envelopes of a serial bottom-up walk in the
// same order for any worker count. All byte/message accounting happens in
// the bus (canonical wire_size per posted envelope): a message is charged
// exactly when it would have crossed a live link. A finish step that
// throws is rethrown after the nodes before it in its level have posted;
// later nodes of that level may already have closed.
//
// Training data never enters a session: each leaf's NodeRuntime holds its
// own loaded samples and encodings (NodeRuntime::load_training), and the
// session only carries the per-sample labels it needs to partition
// retraining batches.
//
// Every session that moves a node's class set one hop posts exactly one
// frame per (sender, receiver) hop, entropy-coded as a unit by the section
// codec: a ReducePartial in training (the node's k class accumulators, or
// every per-(class, batch) accumulator), residual propagation and
// reintegration, and a StateSync in the rejoin rebuild.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bus.hpp"
#include "net/liveness.hpp"
#include "net/topology.hpp"
#include "node_runtime.hpp"
#include "runtime/thread_pool.hpp"
#include "types.hpp"

namespace edgehd::proto {

/// Everything a protocol session needs: the hierarchy, the bus, the pool
/// that closes each level, the liveness view, the training labels, and the
/// cross-phase state (parked contributions/residuals and the straggler list)
/// owned by the facade.
struct SessionContext {
  const net::Topology* topology = nullptr;
  std::span<NodeRuntime> nodes;  ///< indexed by NodeId
  LocalBus* bus = nullptr;
  /// Closes a level's nodes at once; each internal node's batch projection
  /// also splits over it.
  runtime::ThreadPool* pool = nullptr;
  /// Who is up: the detector's beliefs decide delivery and reachability,
  /// the world alone gates local computation (net::Liveness::origin_up).
  net::Liveness liveness;
  std::size_t num_classes = 0;
  std::size_t batch_size = 1;  ///< B, retraining batch size
  /// Class of training sample s — the same for every leaf's sample s (each
  /// physical observation is sensed by every leaf).
  std::span<const std::size_t> labels;

  /// Per-node class-hypervector contributions parked by initial training
  /// (indexed by node; empty = nothing pending).
  std::vector<std::vector<hdc::AccumHV>>* pending_contrib = nullptr;
  /// Residual bundles held back while the uplink was down.
  std::vector<std::vector<hdc::AccumHV>>* pending_residuals = nullptr;
  /// Nodes whose contribution could not reach their parent, deepest-first.
  std::vector<net::NodeId>* stragglers = nullptr;

  /// A live node cut off from its parent parks this round's shipment.
  bool parked(net::NodeId id) const;
};

/// Initial training (Section IV-B): leaves bundle their loaded samples into
/// local class hypervectors, each live node ships its k class accumulators
/// upward in one ReducePartial envelope, parents aggregate what arrived.
/// Clears and rebuilds the straggler list. Returns the phase's network
/// charge.
CommStats run_initial_training(const SessionContext& ctx);

/// Batch retraining (Section IV-B): per-class batch hypervectors of size B
/// travel up, one ReducePartial envelope per live edge (class-major,
/// batch-ascending sections), and drive perceptron retraining at every
/// level. Appends (deduplicated) to the straggler list.
CommStats run_batch_retraining(const SessionContext& ctx);

/// Online-update residual propagation (Section IV-D, Figure 5b): each node
/// folds its children's delivered residuals into its model and ships the
/// combined k-class bundle up as one ReducePartial (kReduceResidual); a
/// node whose uplink is down holds its bundle in pending_residuals for a
/// later round.
CommStats run_residual_propagation(const SessionContext& ctx);

/// Straggler reintegration: every parked contribution whose path to the
/// root is back up is shipped hop by hop, one ReducePartial
/// (kReduceReintegration) per hop, each hop lifting the delta through the
/// parent's aggregator and folding it into the parent's model (exact by
/// linearity).
CommStats run_reintegration(const SessionContext& ctx);

/// Rejoin after a declared death (churn membership). The returning node
/// announces its new incarnation to every ancestor (NodeJoin envelopes),
/// rebuilds its class-accumulator state — a leaf re-bundles its local
/// samples; an internal node re-syncs from its reachable children's
/// checkpointed state, one StateSync frame per child — then every
/// ancestor on the path to the root re-aggregates from its delivering
/// children's full checkpoints in one pass per hop. (A delta-lift would be
/// cheaper, but the projection's integer rescale truncates, so only a full
/// rebuild is bit-exact against the never-failed run.) Exact for the
/// aggregation state (initial training); perceptron retraining state is
/// NOT recovered — a later retraining round re-syncs it. Assumes the node
/// was believed dead for the whole merge schedule, so no ancestor holds any
/// part of its contribution. Direct children whose contributions were
/// parked against the dead parent are unparked (the rebuild consumed their
/// full state). No-op when the node or its path to the root is still
/// believed down.
CommStats run_rejoin(const SessionContext& ctx, net::NodeId rejoined,
                     std::uint64_t incarnation);

/// Adaptive dimensionality (DESIGN.md §14): regenerate the k least
/// discriminating encoder dimensions and propagate the per-class deltas as
/// DimensionPatch envelopes instead of full class sets. In concatenation
/// mode the root scores its own model (every root dimension traces back to
/// exactly one leaf dimension) and requests flow top-down along delivering
/// links; in holographic mode each leaf with a live path to the root scores
/// itself. Leaves re-derive the flagged projection rows, re-encode exactly
/// those dimensions of their loaded samples and patch them into their stored
/// encodings, and the k-column delta patches climb hop by hop, each ancestor
/// lifting them through its aggregator and applying them in place.
CommStats run_dimension_regeneration(const SessionContext& ctx,
                                     std::size_t k, std::uint32_t round);

/// Posts a NodeLeave from `node` to its parent (accounted like any other
/// envelope). Membership bookkeeping only — the detector, not this
/// announcement, decides when the node is treated as gone.
CommStats announce_leave(const SessionContext& ctx, net::NodeId node,
                         std::uint64_t incarnation, bool planned);

}  // namespace edgehd::proto
