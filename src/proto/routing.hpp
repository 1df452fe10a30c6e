// Routed inference (Section IV-C) as per-query message walks.
//
// A query is answered at the lowest node whose softmax confidence clears the
// threshold; otherwise it escalates to the nearest ancestor hosting a
// classifier, carried as a QueryEscalate envelope whose payload is the query
// hypervector *as encoded at the destination node*. The serving node's
// verdict travels back as a QueryReply. Unlike the training sessions, query
// walks do not go through a Bus: every walk is reentrant per-query state, so
// batched inference can fan queries across threads against const
// NodeRuntimes (warm the classifier caches first).
//
// The escalation rule lives in next_step alone; the synchronous walk
// (route_query) and the async serving plane (src/serve) both drive it, one
// decision per verdict. Faults enter only through RoutingContext::liveness
// — a healthy deployment is the fault-free Liveness, not a separate path.
//
// Byte accounting: the paper charges a served query the amortized cost of
// *gathering* its hypervector at the serving node (m-to-1 compressed on
// every hop), not the escalation envelopes — settle() is that canonical
// accounting. The per-envelope "proto.query_escalate.*" /
// "proto.query_reply.*" metrics observe the control traffic separately.
#pragma once

#include <cstdint>
#include <span>

#include "hdc/hypervector.hpp"
#include "net/liveness.hpp"
#include "net/topology.hpp"
#include "node_runtime.hpp"
#include "obs/metrics.hpp"
#include "types.hpp"

namespace edgehd::proto {

/// Read-only view of the hierarchy for query walks, plus the routing policy
/// knobs of SystemConfig and the facade-owned escalation counter.
struct RoutingContext {
  const net::Topology* topology = nullptr;
  std::span<const NodeRuntime> nodes;  ///< indexed by NodeId
  /// Who is up: the detector's beliefs when one runs, the world otherwise.
  net::Liveness liveness;
  double confidence_threshold = 0.75;
  std::size_t compression = 1;  ///< m, query hypervectors per bundle
  bool serve_degraded = true;   ///< FailoverPolicy::serve_degraded
  std::size_t max_retries = 5;  ///< net::ReliableConfig::max_retries
  /// "core.routed.escalations" handle; incremented once per escalation hop.
  const obs::Counter* escalations = nullptr;
};

/// One routing decision for a verdict in hand.
struct Step {
  enum class Kind : std::uint8_t {
    kServe,     ///< answer with the verdict in hand
    kEscalate,  ///< ship the query to `next`
    kCut        ///< escalation wanted to continue, but a dead hop blocks it
  };
  Kind kind = Kind::kServe;
  net::NodeId next = net::kNoNode;  ///< escalation target (kEscalate only)
};

/// The escalation rule. A verdict at `node` with `confidence` is served
/// there when it clears the threshold or `node` is the root; otherwise the
/// query walks hop by hop under ctx.liveness toward the nearest ancestor
/// hosting a classifier — a dead uplink or node anywhere on the way cuts
/// the walk. A root without a classifier leaves the verdict in hand standing.
Step next_step(const RoutingContext& ctx, net::NodeId node, double confidence);

/// What a query served at a node costs and whether its answer is degraded.
struct Settlement {
  std::uint64_t bytes = 0;  ///< query-gathering bytes over delivering hops
  /// Expected retransmission bytes beyond `bytes` on lossy hops (reliable
  /// transport capped at ctx.max_retries retries).
  std::uint64_t retry_bytes = 0;
  bool degraded = false;  ///< some contribution in the subtree is missing
};

/// Amortized cost of gathering one query hypervector at `node` from its
/// subtree's leaves, m-to-1 compressed on every hop. Only delivering hops
/// are charged; a hop that does not deliver marks the answer degraded.
Settlement settle(const RoutingContext& ctx, net::NodeId node);

/// Accounts one QueryEscalate envelope carrying `query` (the per-type
/// "proto.query_escalate.*" counters). One call per escalation hop — the
/// same charge route_query makes, exposed so async escalation sessions
/// account identically.
void account_escalation(const hdc::BipolarHV& query, std::uint64_t query_id,
                        std::uint32_t hops);

/// Accounts the QueryReply envelope for a served result (the
/// "proto.query_reply.*" counters). Unserved results are never accounted —
/// no reply crosses the network.
void account_reply(const RoutedResult& result, std::uint64_t query_id);

/// Synchronous escalation walk from `start` over the per-node encodings
/// `hvs` (indexed by NodeId; unreachable contributions already silenced).
/// The origin must be physically up (ctx.liveness.origin_up). A cut walk is
/// served degraded at its deepest verdict, or reported unserved under the
/// fail-fast policy. Emits "core.predict"/"core.escalate" trace instants
/// under `trace_span`. Does not record the query-level counters — the
/// facade owns those.
RoutedResult route_query(const RoutingContext& ctx,
                         std::span<const hdc::BipolarHV> hvs,
                         net::NodeId start, std::uint64_t query_id,
                         std::uint64_t trace_span);

}  // namespace edgehd::proto
