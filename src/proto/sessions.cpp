#include "sessions.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "runtime/parallel.hpp"

namespace edgehd::proto {

using hdc::AccumHV;
using net::NodeId;

bool SessionContext::parked(NodeId id) const {
  return id != topology->root() &&
         (!liveness.link_up(id) || !liveness.node_up(topology->parent(id)));
}

namespace {

/// Attaches a CommStats sink to the bus for one session.
class ChargeScope {
 public:
  ChargeScope(LocalBus& bus, CommStats& sink) : bus_(&bus) {
    bus_->set_charge(&sink);
  }
  ~ChargeScope() { bus_->set_charge(nullptr); }
  ChargeScope(const ChargeScope&) = delete;
  ChargeScope& operator=(const ChargeScope&) = delete;

 private:
  LocalBus* bus_;
};

/// Opens a phase at every node whose origin is up — all of them before the
/// first level closes, since a child's frame lands in its parent's inbox.
template <typename Begin>
void arm(const SessionContext& ctx, Begin begin) {
  for (NodeId id = 0; id < ctx.nodes.size(); ++id) {
    if (ctx.liveness.origin_up(id)) begin(ctx.nodes[id]);
  }
}

/// The upward reduce (see the header): per level, leaves first, `close`
/// runs on the pool for every live node, then `ship(id, result)` runs
/// serially in id order for every live non-root node. Pool tasks must not
/// throw, so each close's exception is captured; the level ships the nodes
/// before the first thrower, then rethrows its exception.
template <typename Close, typename Ship>
void reduce_up(const SessionContext& ctx, Close close, Ship ship) {
  using Result = std::invoke_result_t<Close&, NodeRuntime&>;
  for (std::size_t level = 1; level <= ctx.topology->depth(); ++level) {
    std::vector<NodeId> live;
    for (NodeId id : ctx.topology->nodes_at_level(level)) {
      if (ctx.liveness.origin_up(id)) live.push_back(id);
    }
    std::vector<Result> results(live.size());
    std::vector<std::exception_ptr> errors(live.size());
    runtime::parallel_for(
        *ctx.pool, live.size(),
        [&](std::size_t i) {
          try {
            results[i] = close(ctx.nodes[live[i]]);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        },
        /*grain=*/1);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
      if (live[i] == ctx.topology->root()) continue;
      ship(live[i], std::move(results[i]));
    }
  }
}

/// Posts `id`'s class set to its parent as one entropy-coded ReducePartial
/// frame. Callers check parked() first, so the post delivers: the bus
/// charge equals what crossed live links.
void post_up(const SessionContext& ctx, NodeId id, std::uint8_t phase,
             std::vector<AccumHV> sections) {
  ctx.bus->post(Envelope{kProtoVersion, id, ctx.topology->parent(id),
                         ReducePartial{phase, static_cast<std::uint32_t>(id),
                                       std::move(sections)}});
}

}  // namespace

CommStats run_initial_training(const SessionContext& ctx) {
  CommStats comm;
  const ChargeScope charge(*ctx.bus, comm);
  ctx.stragglers->clear();
  arm(ctx, [](NodeRuntime& node) { node.begin_initial_training(); });
  reduce_up(
      ctx,
      [&ctx](NodeRuntime& node) {
        return node.finish_initial_training(*ctx.pool);
      },
      [&ctx](NodeId id, std::vector<AccumHV> accums) {
        if (ctx.parked(id)) {
          // Cut off from the parent: park the contribution for
          // run_reintegration once the path is back up.
          (*ctx.pending_contrib)[id] = std::move(accums);
          ctx.stragglers->push_back(id);
        } else {
          // The k class hypervectors: models, not data.
          post_up(ctx, id, kReduceInitial, std::move(accums));
        }
      });
  return comm;
}

CommStats run_batch_retraining(const SessionContext& ctx) {
  CommStats comm;
  const ChargeScope charge(*ctx.bus, comm);

  // Per-class batches over the training-sample index space; the same sample
  // partition is used at every node so batch hypervectors line up across the
  // hierarchy (each physical observation is sensed by every leaf).
  ClassBatches batches(ctx.num_classes);
  {
    std::vector<std::vector<std::size_t>> by_class(ctx.num_classes);
    for (std::size_t s = 0; s < ctx.labels.size(); ++s) {
      by_class[ctx.labels[s]].push_back(s);
    }
    for (std::size_t c = 0; c < ctx.num_classes; ++c) {
      for (std::size_t start = 0; start < by_class[c].size();
           start += ctx.batch_size) {
        const std::size_t end =
            std::min(start + ctx.batch_size, by_class[c].size());
        batches[c].emplace_back(by_class[c].begin() + start,
                                by_class[c].begin() + end);
      }
    }
  }

  arm(ctx, [&batches](NodeRuntime& node) {
    node.begin_batch_retraining(batches);
  });
  reduce_up(
      ctx,
      [&ctx](NodeRuntime& node) {
        return node.finish_batch_retraining(*ctx.pool);
      },
      [&ctx](NodeId id, std::vector<std::vector<AccumHV>> nb) {
        if (ctx.parked(id)) {
          // Perceptron updates are not linear, so there is nothing exact to
          // park — recovery re-syncs via a fresh retrain; just record it.
          auto& list = *ctx.stragglers;
          if (std::find(list.begin(), list.end(), id) == list.end()) {
            list.push_back(id);
          }
        } else {
          // Every per-(class, batch) hypervector in one fused frame,
          // class-major, batch-ascending.
          std::vector<AccumHV> sections;
          for (auto& class_batches : nb) {
            for (auto& acc : class_batches) sections.push_back(std::move(acc));
          }
          post_up(ctx, id, kReduceBatch, std::move(sections));
        }
      });
  return comm;
}

CommStats run_residual_propagation(const SessionContext& ctx) {
  CommStats comm;
  const ChargeScope charge(*ctx.bus, comm);
  // A crashed node neither applies nor ships anything; its own residuals
  // stay queued inside its classifier until a later round finds it up.
  arm(ctx, [](NodeRuntime& node) { node.begin_residual_propagation(); });
  reduce_up(
      ctx,
      [&ctx](NodeRuntime& node) {
        return node.finish_residual_propagation(*ctx.pool);
      },
      [&ctx](NodeId id, std::vector<AccumHV> ship) {
        // What ships upward: this round's bundle plus anything held back by
        // an earlier round whose uplink was down.
        auto& pending = (*ctx.pending_residuals)[id];
        if (!pending.empty()) {
          for (std::size_t c = 0; c < ctx.num_classes; ++c) {
            hdc::accumulate(ship[c], pending[c]);
          }
          pending.clear();
        }
        if (hdc::is_zero(ship)) return;  // nothing to report upward
        if (ctx.parked(id)) {
          pending = std::move(ship);
        } else {
          post_up(ctx, id, kReduceResidual, std::move(ship));
        }
      });
  return comm;
}

CommStats run_reintegration(const SessionContext& ctx) {
  CommStats comm;
  const ChargeScope charge(*ctx.bus, comm);
  const NodeId root = ctx.topology->root();

  for (NodeId id : ctx.topology->bottom_up()) {
    auto& parked_contrib = (*ctx.pending_contrib)[id];
    if (parked_contrib.empty()) continue;
    // Still cut off? The contribution stays pending for a later call.
    if (!ctx.liveness.reachable_to_root(*ctx.topology, id)) continue;
    std::vector<AccumHV> cur = std::move(parked_contrib);
    parked_contrib.clear();
    NodeId child = id;
    while (child != root) {
      const NodeId parent = ctx.topology->parent(child);
      NodeRuntime& prt = ctx.nodes[parent];
      prt.begin_reintegration();
      // Ship the delta one hop up (k class hypervectors in one frame, like
      // training); the parent lifts it through its aggregator and folds it
      // into its model.
      ctx.bus->post(Envelope{
          kProtoVersion, child, parent,
          ReducePartial{kReduceReintegration,
                        static_cast<std::uint32_t>(child), std::move(cur)}});
      cur = prt.finish_reintegration(child, *ctx.pool);
      child = parent;
    }
    auto& list = *ctx.stragglers;
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
  }
  return comm;
}

CommStats run_rejoin(const SessionContext& ctx, NodeId rejoined,
                     std::uint64_t incarnation) {
  CommStats comm;
  const ChargeScope charge(*ctx.bus, comm);
  const NodeId root = ctx.topology->root();
  if (rejoined == root) {
    throw std::invalid_argument("run_rejoin: the root cannot rejoin");
  }
  // Still believed down, or the path to the root is? Try again later.
  if (!ctx.liveness.node_up(rejoined) ||
      !ctx.liveness.reachable_to_root(*ctx.topology, rejoined)) {
    return comm;
  }

  // 1. Announce the new generation to every ancestor, so the StateSync
  //    envelopes below pass their incarnation checks.
  for (NodeId anc = ctx.topology->parent(rejoined);;
       anc = ctx.topology->parent(anc)) {
    ctx.bus->post(
        Envelope{kProtoVersion, rejoined, anc, NodeJoin{incarnation}});
    if (anc == root) break;
  }

  auto unpark = [&ctx](NodeId id) {
    (*ctx.pending_contrib)[id].clear();
    auto& list = *ctx.stragglers;
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
  };

  // Rebuilds `node` from its delivering children's checkpoints, one
  // StateSync frame per child (an unreachable child contributes zeros and
  // stays a straggler), and records every synced child.
  std::vector<NodeId> synced_kids;
  auto rebuild = [&](NodeId node) {
    NodeRuntime& rt = ctx.nodes[node];
    rt.begin_initial_training();
    for (NodeId kid : ctx.topology->children(node)) {
      if (!ctx.liveness.delivers(kid)) continue;
      auto state = ctx.nodes[kid].checkpoint_state();
      if (state.empty()) continue;  // child never trained — nothing to sync
      ctx.bus->post(Envelope{
          kProtoVersion, kid, node,
          StateSync{rt.known_incarnation(kid), std::move(state)}});
      if (kid != rejoined) synced_kids.push_back(kid);
    }
    rt.finish_initial_training(*ctx.pool);
  };

  // 2. Rebuild local state. A leaf re-bundles its own samples; an internal
  //    node aggregates its reachable children's checkpoints. Exact by
  //    determinism: the same inputs reproduce the same accumulators the
  //    lost life computed.
  rebuild(rejoined);

  // 3. Re-synchronize every ancestor on the path from its delivering
  //    children's full checkpoints, one aggregation pass per hop (StateSync
  //    frames, so every hop validates generations). A delta-lift through
  //    the reintegration machinery would be cheaper on the wire, but the
  //    projection's integer rescale truncates — aggregate(a + b) can differ
  //    from aggregate(a) + aggregate(b) by one unit per element — so only a
  //    full rebuild reproduces the never-failed aggregation bit-exactly.
  for (NodeId hop = ctx.topology->parent(rejoined);;
       hop = ctx.topology->parent(hop)) {
    rebuild(hop);
    if (hop == root) break;
  }

  // 4. The rebuild consumed the synced children's full state and superseded
  //    any contribution parked by the rejoined node's previous life.
  unpark(rejoined);
  for (NodeId kid : synced_kids) unpark(kid);
  return comm;
}

CommStats run_dimension_regeneration(const SessionContext& ctx,
                                     std::size_t k, std::uint32_t round) {
  CommStats comm;
  const ChargeScope charge(*ctx.bus, comm);
  if (k == 0) return comm;
  const NodeId root = ctx.topology->root();
  const auto order = ctx.topology->bottom_up();
  arm(ctx, [round](NodeRuntime& node) { node.begin_dimension_regen(round); });

  const bool central_scored =
      !ctx.topology->is_leaf(root) &&
      ctx.nodes[root].aggregator().mode() ==
          hier::AggregationMode::kConcatenation;

  if (central_scored) {
    // Concatenation: every root dimension traces back to exactly one leaf
    // dimension, so the root scores its model globally and the requests
    // flow top-down along delivering links (a cut-off subtree receives no
    // request and therefore produces no delta — consistent by omission).
    if (ctx.liveness.origin_up(root)) {
      const auto state = ctx.nodes[root].checkpoint_state();
      if (!state.empty()) {
        ctx.nodes[root].set_regen_request(hdc::worst_dimensions(state, k));
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId id = *it;
      if (ctx.topology->is_leaf(id) || !ctx.liveness.origin_up(id)) continue;
      const auto& req = ctx.nodes[id].regen_request();
      if (req.empty()) continue;
      // Split the node's own ascending request across its children: dim d
      // belongs to child ci with offset(ci) <= d < offset(ci + 1).
      const auto& cdims = ctx.nodes[id].aggregator().child_dims();
      const auto kids = ctx.topology->children(id);
      std::vector<std::vector<std::uint32_t>> per_child(kids.size());
      std::size_t ci = 0;
      std::size_t off = 0;
      for (std::uint32_t d : req) {
        while (ci + 1 < kids.size() && d >= off + cdims[ci]) {
          off += cdims[ci];
          ++ci;
        }
        per_child[ci].push_back(d - static_cast<std::uint32_t>(off));
      }
      for (std::size_t c = 0; c < kids.size(); ++c) {
        if (per_child[c].empty()) continue;
        if (!ctx.liveness.origin_up(kids[c]) ||
            !ctx.liveness.delivers(kids[c])) {
          continue;
        }
        ctx.bus->post(Envelope{
            kProtoVersion, id, kids[c],
            DimensionPatch{round, std::move(per_child[c]), {}, {}}});
      }
    }
  } else {
    // Holographic (or a single-node hierarchy): the ternary projection
    // mixes every leaf dimension into every ancestor dimension, so there is
    // no 1:1 trace-back — each leaf scores its own model locally. Gated on
    // a live path to the root so a patched leaf never diverges from the
    // ancestors that could not hear its delta.
    for (NodeId id : order) {
      if (!ctx.topology->is_leaf(id) || !ctx.liveness.origin_up(id)) continue;
      if (id != root && !ctx.liveness.reachable_to_root(*ctx.topology, id)) {
        continue;
      }
      const auto state = ctx.nodes[id].checkpoint_state();
      if (state.empty()) continue;
      ctx.nodes[id].set_regen_request(hdc::worst_dimensions(state, k));
    }
  }

  // Bottom-up: leaves re-derive rows and patch their stored encodings,
  // ancestors lift and merge; every node applies its delta in place and
  // ships the k-column patch one hop up — never a full class set.
  reduce_up(
      ctx,
      [&ctx](NodeRuntime& node) {
        return node.role() == NodeRuntime::Role::kLeaf
                   ? node.finish_dimension_regen_leaf()
                   : node.finish_dimension_regen_internal(*ctx.pool);
      },
      [&ctx](NodeId id, DimensionPatch patch) {
        if (patch.dims.empty() || ctx.parked(id)) return;
        ctx.bus->post(Envelope{kProtoVersion, id, ctx.topology->parent(id),
                               std::move(patch)});
      });
  return comm;
}

CommStats announce_leave(const SessionContext& ctx, NodeId node,
                         std::uint64_t incarnation, bool planned) {
  CommStats comm;
  const ChargeScope charge(*ctx.bus, comm);
  if (node == ctx.topology->root()) return comm;  // the root has no parent
  ctx.bus->post(Envelope{
      kProtoVersion, node, ctx.topology->parent(node),
      NodeLeave{incarnation, static_cast<std::uint8_t>(planned ? 1 : 0)}});
  return comm;
}

}  // namespace edgehd::proto
