// One view of who is up, consulted by every protocol decision.
//
// Two sources can say whether a node or link is usable: the simulated
// physical world (a HealthMask snapshot of the FaultPlan) and the beliefs a
// FailureDetector earned from probe traffic (its SuspicionView). With beliefs
// installed, every reachability decision follows them; the world is consulted
// only where it must be simulated — a physically dead node cannot pose a
// query or compute anything locally (origin_up). Without beliefs, decisions
// follow the world (the oracle mode).
//
// A healthy deployment is a Liveness with no faults, not a separate code
// path: the constructor caches all_healthy(), and while it holds every
// predicate answers "up, loss-free" without touching either source. The
// cache is taken at construction, so rebuild the Liveness whenever the world
// or the beliefs move (the facade builds one per call, the serving engine one
// per virtual instant).
#pragma once

#include "detector.hpp"
#include "fault.hpp"
#include "topology.hpp"

namespace edgehd::net {

class Liveness {
 public:
  /// Fault-free: everything up, no loss.
  Liveness() = default;
  /// `world` may be null or empty (all healthy); `beliefs` may be null (the
  /// oracle mode). Both must outlive the Liveness.
  Liveness(const HealthMask* world, const SuspicionView* beliefs) noexcept
      : world_(world),
        beliefs_(beliefs),
        all_healthy_((world == nullptr || world->all_healthy()) &&
                     (beliefs == nullptr || beliefs->all_healthy())) {}

  /// Nothing is down or lossy in the world or the beliefs (as of
  /// construction).
  bool all_healthy() const noexcept { return all_healthy_; }

  bool node_up(NodeId id) const noexcept {
    if (all_healthy_) return true;
    return beliefs_ != nullptr ? beliefs_->node_up(id) : world_->node_up(id);
  }
  /// Uplink of `child` usable.
  bool link_up(NodeId child) const noexcept {
    if (all_healthy_) return true;
    return beliefs_ != nullptr ? beliefs_->link_up(child)
                               : world_->link_up(child);
  }
  /// A child's contribution reaches its parent: the child and its uplink are
  /// both up (the parent's own liveness is the caller's context).
  bool delivers(NodeId child) const noexcept {
    return node_up(child) && link_up(child);
  }
  /// Physically alive — world simulation, never beliefs. Local computation
  /// (bundling, aggregation, perceptron updates) and posing a query happen
  /// on the node itself, so only the world can gate them: a node everyone
  /// believes dead still trains on its local data, it just cannot deliver.
  bool origin_up(NodeId id) const noexcept {
    return world_ == nullptr || world_->node_up(id);
  }
  /// Bernoulli loss on the uplink of `child`: the observed estimate when
  /// beliefs are installed, the world's rate otherwise.
  double link_loss(NodeId child) const noexcept {
    if (all_healthy_) return 0.0;
    return beliefs_ != nullptr ? beliefs_->link_loss(child)
                               : world_->link_loss(child);
  }
  /// `id` and every hop from it to the root are up.
  bool reachable_to_root(const Topology& topo, NodeId id) const {
    if (all_healthy_) return true;
    return beliefs_ != nullptr ? beliefs_->reachable_up(topo, id, topo.root())
                               : world_->reachable_up(topo, id, topo.root());
  }

 private:
  const HealthMask* world_ = nullptr;
  const SuspicionView* beliefs_ = nullptr;
  bool all_healthy_ = true;
};

}  // namespace edgehd::net
