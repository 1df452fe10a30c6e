#include "routing.hpp"

#include <cmath>
#include <variant>

#include "bus.hpp"
#include "obs/trace.hpp"

namespace edgehd::proto {

using net::NodeId;

namespace {

void gather(const RoutingContext& ctx, NodeId id, Settlement& s) {
  for (NodeId kid : ctx.topology->children(id)) {
    if (!ctx.liveness.delivers(kid)) {
      s.degraded = true;  // nothing crosses a dead hop
      continue;
    }
    gather(ctx, kid, s);
    const std::uint64_t b =
        compressed_query_wire_size(ctx.nodes[kid].dim(), ctx.compression);
    s.bytes += b;
    const double p = ctx.liveness.link_loss(kid);
    if (p > 0.0) {
      // Reliable transport: the hop is charged the expected number of
      // transmissions per packet under its retry cap; everything beyond the
      // first copy is retry overhead.
      s.retry_bytes += static_cast<std::uint64_t>(std::llround(
          static_cast<double>(b) *
          (net::expected_attempts(p, ctx.max_retries) - 1.0)));
    }
  }
}

}  // namespace

Step next_step(const RoutingContext& ctx, NodeId node, double confidence) {
  const net::Topology& topo = *ctx.topology;
  if (confidence >= ctx.confidence_threshold || node == topo.root()) {
    return {Step::Kind::kServe};
  }
  NodeId next = node;
  do {
    if (!ctx.liveness.link_up(next)) return {Step::Kind::kCut};
    next = topo.parent(next);
    if (!ctx.liveness.node_up(next)) return {Step::Kind::kCut};
  } while (next != topo.root() && !ctx.nodes[next].has_classifier());
  if (!ctx.nodes[next].has_classifier()) return {Step::Kind::kServe};
  return {Step::Kind::kEscalate, next};
}

Settlement settle(const RoutingContext& ctx, NodeId node) {
  Settlement s;
  gather(ctx, node, s);
  return s;
}

void account_escalation(const hdc::BipolarHV& query, std::uint64_t query_id,
                        std::uint32_t hops) {
  const Message msg = QueryEscalate{query_id, hops, query};
  detail::account_delivery(msg, wire_size(msg));
}

void account_reply(const RoutedResult& result, std::uint64_t query_id) {
  const Message msg =
      QueryReply{query_id, static_cast<std::uint32_t>(result.label),
                 result.confidence, static_cast<std::uint64_t>(result.node),
                 static_cast<std::uint32_t>(result.level),
                 static_cast<std::uint8_t>(result.degraded ? 1 : 0)};
  detail::account_delivery(msg, wire_size(msg));
}

RoutedResult route_query(const RoutingContext& ctx,
                         std::span<const hdc::BipolarHV> hvs, NodeId start,
                         std::uint64_t query_id, std::uint64_t trace_span) {
  auto& tracer = obs::Tracer::global();
  NodeId current = start;
  std::uint32_t hops = 0;
  bool cut = false;
  RoutedResult result;
  while (true) {
    const hdc::Prediction pred = ctx.nodes[current].predict(hvs[current]);
    result.label = pred.label;
    result.confidence = pred.confidence;
    result.node = current;
    result.level = ctx.topology->level(current);
    tracer.instant("core.predict", obs::kAutoTime, trace_span, current,
                   pred.label);
    const Step step = next_step(ctx, current, pred.confidence);
    if (step.kind == Step::Kind::kServe) break;
    if (step.kind == Step::Kind::kCut) {
      if (!ctx.serve_degraded) {
        RoutedResult unserved;
        unserved.degraded = true;
        return unserved;
      }
      cut = true;
      break;
    }
    ctx.escalations->inc();
    tracer.instant("core.escalate", obs::kAutoTime, trace_span, current,
                   step.next);
    // The query ships as a typed envelope payload, encoded for the
    // destination's hypervector space; the ancestor predicts on what the
    // message carries.
    account_escalation(hvs[step.next], query_id, ++hops);
    current = step.next;
  }
  const Settlement s = settle(ctx, result.node);
  result.bytes = s.bytes;
  result.retry_bytes = s.retry_bytes;
  result.degraded = cut || s.degraded;
  account_reply(result, query_id);
  return result;
}

}  // namespace edgehd::proto
