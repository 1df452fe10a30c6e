#include "engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace edgehd::serve {

using hdc::BipolarHV;
using net::NodeId;
using net::SimTime;

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511627776003ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v;
  h *= kFnvPrime;
}

/// Exact nearest-rank quantile over a sorted sample.
double nearest_rank(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

}  // namespace

Engine::Engine(ServeConfig config, Bindings bindings)
    : cfg_(config), b_(std::move(bindings)) {
  if (b_.ctx.topology == nullptr || b_.pool == nullptr) {
    throw std::invalid_argument("serve::Engine: unbound topology or pool");
  }
  if (b_.num_samples == 0) {
    throw std::invalid_argument("serve::Engine: empty query pool");
  }
  cfg_.max_batch = std::max<std::size_t>(1, cfg_.max_batch);
  nodes_.resize(b_.ctx.topology->num_nodes());
  for (NodeState& ns : nodes_) ns.queue = AdmissionQueue(cfg_.queue_depth);
  report_.per_node.resize(nodes_.size());
  report_.reply_hash = kFnvOffset;
  if constexpr (obs::kEnabled) {
    auto& reg = obs::MetricsRegistry::global();
    m_submitted_ = reg.counter("serve.submitted");
    m_shed_admission_ = reg.counter("serve.shed.admission");
    m_shed_escalated_ = reg.counter("serve.shed.escalated");
    m_batches_ = reg.counter("serve.batches");
    m_slo_violations_ = reg.counter("serve.slo_violations");
    m_failover_retries_ = reg.counter("serve.failover.readmissions");
    m_failover_reroutes_ = reg.counter("serve.failover.reroutes");
    m_failover_exhausted_ = reg.counter("serve.failover.exhausted");
    // Virtual-time latency buckets, 100 us .. 1 s (deterministic, so stable).
    m_latency_ = reg.histogram(
        "serve.latency_ns",
        {1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8,
         1e9});
    m_queue_peak_ = reg.gauge("serve.queue.peak");
  }
}

void Engine::set_fault_plan(net::FaultPlan plan) {
  detector_.reset();
  plan_ = std::move(plan);
  mask_time_ = -1;
  if (b_.detector.enabled) {
    // Detector mode: routing beliefs come from probe traffic over this plan,
    // not from the oracle mask. The mask keeps simulating the physical world
    // (a dead node cannot serve), consulted only through origin_up().
    detector_ = std::make_unique<net::FailureDetector>(*b_.ctx.topology,
                                                       *plan_, b_.detector);
  }
}

void Engine::refresh_mask(SimTime t) {
  if (t == mask_time_) return;
  mask_time_ = t;
  if (plan_.has_value()) {
    mask_ = net::HealthMask::snapshot(*plan_, nodes_.size(), t);
  } else {
    mask_ = net::HealthMask{};
  }
  if (detector_) detector_->advance(t);
  // The liveness caches its all-healthy verdict here: a failure a query
  // reports to the detector within an all-healthy instant steers routing
  // from the next instant on.
  b_.ctx.liveness =
      net::Liveness(&mask_, detector_ ? &detector_->view() : nullptr);
}

void Engine::schedule(SimTime t, Ev::Kind kind, NodeId node, std::uint64_t a,
                      std::uint64_t b) {
  const std::uint64_t seq = next_seq_++;
  events_.push(t, seq, Ev{t, seq, kind, node, a, b});
}

std::uint64_t Engine::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint64_t s = free_slots_.back();
    free_slots_.pop_back();
    slots_[s] = QueryState{};
    return s;
  }
  slots_.emplace_back();
  return slots_.size() - 1;
}

void Engine::release_slot(std::uint64_t slot) {
  slots_[slot].hvs.clear();
  free_slots_.push_back(slot);
}

void Engine::submit(SimTime at, NodeId origin, std::uint64_t sample) {
  if (spent_) throw std::logic_error("serve::Engine: already run");
  if (origin >= nodes_.size() || !b_.ctx.nodes[origin].has_classifier()) {
    throw std::invalid_argument(
        "serve::Engine: origin must host a classifier");
  }
  if (sample >= b_.num_samples) {
    throw std::invalid_argument("serve::Engine: sample out of range");
  }
  schedule(at, Ev::Kind::kArrival, origin, sample, kNoClient);
}

void Engine::client_submit(std::uint64_t client, SimTime at) {
  if (closed_issued_ >= closed_quota_) return;
  ++closed_issued_;
  Client& c = clients_[client];
  schedule(at, Ev::Kind::kArrival, c.origin, c.rng.index(b_.num_samples),
           client);
}

void Engine::on_arrival(const Ev& ev) {
  refresh_mask(ev.t);
  ++report_.submitted;
  m_submitted_.inc();
  if (!b_.ctx.liveness.origin_up(ev.node)) {
    // The origin itself is down: nobody can pose the question. Counted as a
    // routed query that went unserved, exactly like the synchronous walk.
    b_.routed_queries.inc();
    b_.routed_unserved.inc();
    ++report_.unserved;
    if (ev.b != kNoClient) client_submit(ev.b, ev.t + think_);
    return;
  }
  NodeState& ns = nodes_[ev.node];
  const std::uint64_t slot = alloc_slot();
  if (!ns.queue.try_push({slot, ev.t})) {
    // Load shedding: refused before entering the service, so it never
    // touches the routed-inference accounting.
    release_slot(slot);
    ++report_.shed_admission;
    m_shed_admission_.inc();
    if (ev.b != kNoClient) client_submit(ev.b, ev.t + think_);
    return;
  }
  QueryState& q = slots_[slot];
  q.arrival = ev.t;
  q.origin = ev.node;
  q.sample = ev.a;
  q.client = ev.b;
  q.query_id = next_query_id_++;
  ++ns.stats.admitted;
  ++in_flight_;
  maybe_flush(ev.node, ev.t);
}

void Engine::maybe_flush(NodeId node, SimTime now) {
  NodeState& ns = nodes_[node];
  if (ns.busy || ns.queue.empty()) return;
  const bool full = ns.queue.size() >= cfg_.max_batch;
  const bool due = ns.queue.oldest_enqueued() + cfg_.max_wait <= now;
  if (full || due) {
    const std::size_t k = std::min(cfg_.max_batch, ns.queue.size());
    ns.in_service.clear();
    for (std::size_t i = 0; i < k; ++i) {
      ns.in_service.push_back(ns.queue.pop_front().slot);
    }
    ns.busy = true;
    ++ns.deadline_epoch;  // any armed deadline is now stale
    ++ns.stats.batches;
    ++report_.batches;
    m_batches_.inc();
    schedule(now + cfg_.batch_overhead +
                 static_cast<SimTime>(k) * cfg_.per_query_cost,
             Ev::Kind::kServiceDone, node);
  } else {
    // Not enough work yet: arm (or re-arm) the deadline flush for the
    // oldest waiter. The epoch stamp invalidates earlier timers.
    ++ns.deadline_epoch;
    schedule(ns.queue.oldest_enqueued() + cfg_.max_wait, Ev::Kind::kDeadline,
             node, ns.deadline_epoch);
  }
}

void Engine::on_deadline(const Ev& ev) {
  if (ev.a != nodes_[ev.node].deadline_epoch) return;  // stale timer
  refresh_mask(ev.t);
  if (!b_.ctx.liveness.origin_up(ev.node)) {
    fail_node_queue(ev.node, ev.t);
    return;
  }
  maybe_flush(ev.node, ev.t);
}

void Engine::fail_node_queue(NodeId node, SimTime now) {
  // The node is down: it cannot hold queue state, so everything waiting
  // here fails over. Queries already holding a deeper verdict fall back to
  // it (degraded); the rest are lost.
  NodeState& ns = nodes_[node];
  if (detector_ && !ns.queue.empty() && node != b_.ctx.topology->root()) {
    // The lost queue is hard evidence of death; feed it to the detector so
    // later routing decisions stop steering queries at this node.
    detector_->report_failure(b_.ctx.topology->parent(node), node, now);
  }
  while (!ns.queue.empty()) finalize_cut(ns.queue.pop_front().slot, now);
}

void Engine::ensure_hvs(QueryState& q) {
  if (q.hvs.empty()) q.hvs = b_.encode_all(q.sample, mask_);
}

void Engine::on_service_done(const Ev& ev) {
  refresh_mask(ev.t);
  NodeState& ns = nodes_[ev.node];
  const std::vector<std::uint64_t> batch = ns.in_service;
  ns.in_service.clear();
  ns.busy = false;
  if (!b_.ctx.liveness.origin_up(ev.node)) {
    // The serving node crashed while the batch was in flight. Queries that
    // already hold a verdict from a deeper node fall back to it; the rest
    // are lost.
    for (const std::uint64_t slot : batch) finalize_cut(slot, ev.t);
    fail_node_queue(ev.node, ev.t);
    return;
  }
  // ---- batched compute: one encode_batch + one predict_batch dispatch ----
  std::vector<BipolarHV> queries(batch.size());
  if (b_.ctx.topology->is_leaf(ev.node)) {
    std::vector<std::uint64_t> fresh_samples;
    std::vector<std::size_t> fresh_pos;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      QueryState& q = slots_[batch[i]];
      if (q.hvs.empty()) {
        fresh_samples.push_back(q.sample);
        fresh_pos.push_back(i);
      } else {
        queries[i] = q.hvs[ev.node];
      }
    }
    if (!fresh_samples.empty()) {
      auto encoded = b_.encode_leaf_batch(ev.node, fresh_samples);
      for (std::size_t i = 0; i < fresh_pos.size(); ++i) {
        queries[fresh_pos[i]] = std::move(encoded[i]);
      }
    }
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      QueryState& q = slots_[batch[i]];
      ensure_hvs(q);
      queries[i] = q.hvs[ev.node];
    }
  }
  const auto preds =
      b_.ctx.nodes[ev.node].classifier().predict_batch(queries, *b_.pool);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    QueryState& q = slots_[batch[i]];
    q.best.label = preds[i].label;
    q.best.confidence = preds[i].confidence;
    q.best.node = ev.node;
    q.best.level = b_.ctx.topology->level(ev.node);
    decide(batch[i], ev.t);
  }
  maybe_flush(ev.node, ev.t);
}

void Engine::decide(std::uint64_t slot, SimTime now) {
  QueryState& q = slots_[slot];
  const proto::Step step =
      proto::next_step(b_.ctx, q.best.node, q.best.confidence);
  if (step.kind == proto::Step::Kind::kServe) {
    finalize_served(slot, now, /*cut=*/false);
    return;
  }
  if (step.kind == proto::Step::Kind::kCut) {
    // In detector mode the block is a belief that may yet be refuted (a
    // probe round, an outage closing), so spend the failover budget before
    // settling for the local verdict.
    if (detector_ && try_failover(slot, now)) return;
    finalize_cut(slot, now);
    return;
  }
  if (q.failovers > 0 && !q.rerouted) {
    // The query survived at least one failover wait and found a live path
    // up again: count the reroute once per query.
    q.rerouted = true;
    ++report_.failover_reroutes;
    m_failover_reroutes_.inc();
  }
  // Async escalation session: charge the QueryEscalate envelope now, ship
  // the query one virtual hop up, and return — the local queue keeps
  // draining while this query is in flight.
  ensure_hvs(q);
  b_.ctx.escalations->inc();
  proto::account_escalation(q.hvs[step.next], q.query_id, ++q.hops);
  ++report_.escalation_hops;
  schedule(now + cfg_.escalate_latency, Ev::Kind::kEscalateArrive, step.next,
           slot);
}

bool Engine::try_failover(std::uint64_t slot, SimTime now) {
  QueryState& q = slots_[slot];
  if (q.failovers >= cfg_.failover_retries) {
    ++report_.failover_exhausted;
    m_failover_exhausted_.inc();
    return false;
  }
  ++q.failovers;
  ++report_.failover_retries;
  m_failover_retries_.inc();
  schedule(now + cfg_.failover_backoff, Ev::Kind::kFailoverRetry, q.best.node,
           slot);
  return true;
}

void Engine::on_failover_retry(const Ev& ev) {
  refresh_mask(ev.t);
  const std::uint64_t slot = ev.a;
  if (!b_.ctx.liveness.origin_up(ev.node)) {
    // The node holding the deepest verdict died while the query waited out
    // its backoff: nothing is left to answer from.
    finalize_unserved(slot, ev.t);
    return;
  }
  // Re-run the routing decision with current beliefs: a refuted suspicion
  // escalates again (counted as a reroute), a persistent one burns another
  // retry or settles for the held verdict.
  decide(slot, ev.t);
}

void Engine::on_escalate_arrive(const Ev& ev) {
  refresh_mask(ev.t);
  const std::uint64_t slot = ev.a;
  if (!b_.ctx.liveness.origin_up(ev.node)) {
    // Destination died while the query was in flight — same outcome as a
    // blocked walk, except in detector mode the sender learns from the
    // failed session and may retry within the failover budget.
    if (detector_) {
      detector_->report_failure(slots_[slot].best.node, ev.node, ev.t);
      if (try_failover(slot, ev.t)) return;
    }
    finalize_cut(slot, ev.t);
    return;
  }
  NodeState& ns = nodes_[ev.node];
  if (!ns.queue.try_push({slot, ev.t})) {
    // Upstream overload: the ancestor refuses the session and the query is
    // served with the deepest verdict it already holds. Overload is not a
    // fault, so the answer is not marked degraded.
    ++report_.shed_escalated;
    m_shed_escalated_.inc();
    finalize_served(slot, ev.t, /*cut=*/false);
    return;
  }
  ++ns.stats.admitted;
  maybe_flush(ev.node, ev.t);
}

void Engine::finalize_served(std::uint64_t slot, SimTime now, bool cut) {
  QueryState& q = slots_[slot];
  proto::RoutedResult result = q.best;
  const proto::Settlement s = proto::settle(b_.ctx, result.node);
  result.bytes = s.bytes;
  result.retry_bytes = s.retry_bytes;
  result.degraded = cut || s.degraded;
  proto::account_reply(result, q.query_id);
  b_.routed_queries.inc();
  if (result.degraded) {
    b_.routed_degraded.inc();
    ++report_.served_degraded;
  }
  b_.routed_bytes.inc(result.bytes);
  b_.routed_retry_bytes.inc(result.retry_bytes);
  b_.routed_confidence.observe(result.confidence);
  if (result.node < b_.node_serves.size()) b_.node_serves[result.node].inc();
  ++report_.served;
  ++nodes_[result.node].stats.served;
  if (!b_.labels.empty() && result.label == b_.labels[q.sample]) {
    ++report_.correct;
  }
  // The reply descends the hops the query climbed before landing back at
  // the origin.
  const SimTime completed =
      now + static_cast<SimTime>(q.hops) * cfg_.escalate_latency;
  const SimTime latency = completed - q.arrival;
  latencies_.push_back(latency);
  m_latency_.observe(static_cast<double>(latency));
  if (latency > cfg_.slo) {
    ++report_.slo_violations;
    m_slo_violations_.inc();
  }
  report_.makespan = std::max(report_.makespan, completed);
  record_reply(q, result, completed);
  if (q.client != kNoClient) client_submit(q.client, completed + think_);
  release_slot(slot);
  --in_flight_;
}

void Engine::finalize_cut(std::uint64_t slot, SimTime now) {
  if (slots_[slot].best.node != net::kNoNode && b_.ctx.serve_degraded) {
    finalize_served(slot, now, /*cut=*/true);
  } else {
    finalize_unserved(slot, now);
  }
}

void Engine::finalize_unserved(std::uint64_t slot, SimTime now) {
  QueryState& q = slots_[slot];
  b_.routed_queries.inc();
  b_.routed_unserved.inc();
  ++report_.unserved;
  proto::RoutedResult result;  // node == kNoNode
  result.degraded = true;
  record_reply(q, result, now);
  if (q.client != kNoClient) client_submit(q.client, now + think_);
  release_slot(slot);
  --in_flight_;
}

void Engine::record_reply(const QueryState& q,
                          const proto::RoutedResult& result,
                          SimTime completed) {
  std::uint64_t& h = report_.reply_hash;
  fnv_mix(h, q.query_id);
  fnv_mix(h, q.sample);
  fnv_mix(h, static_cast<std::uint64_t>(result.node));
  fnv_mix(h, result.label);
  fnv_mix(h, std::bit_cast<std::uint64_t>(result.confidence));
  fnv_mix(h, result.degraded ? 1 : 0);
  fnv_mix(h, result.bytes + result.retry_bytes);
  fnv_mix(h, static_cast<std::uint64_t>(completed));
  if (cfg_.record_replies) {
    report_.replies.push_back(
        Reply{q.query_id, q.sample, q.origin, result, q.arrival, completed});
  }
}

ServeReport Engine::run() { return drain(); }

ServeReport Engine::run(const LoadSpec& load) {
  if (spent_) throw std::logic_error("serve::Engine: already run");
  for (const OriginSpec& o : load.origins) {
    if (o.origin >= nodes_.size() ||
        !b_.ctx.nodes[o.origin].has_classifier()) {
      throw std::invalid_argument(
          "serve::Engine: load origin must host a classifier");
    }
  }
  LoadGenerator gen(load, b_.num_samples);
  // Merge generated arrivals with scheduled events in global time order;
  // the generator is pulled lazily so multi-million-query runs never
  // materialize the trace.
  Arrival pending;
  bool has_pending = gen.next(pending);
  while (!events_.empty() || has_pending) {
    if (has_pending &&
        (events_.empty() || pending.at <= events_.front().time)) {
      schedule(pending.at, Ev::Kind::kArrival, pending.origin, pending.sample,
               kNoClient);
      has_pending = gen.next(pending);
      continue;
    }
    const Ev ev = events_.pop().payload;
    dispatch(ev);
  }
  return finish();
}

ServeReport Engine::run(const ClosedLoopSpec& load) {
  if (spent_) throw std::logic_error("serve::Engine: already run");
  for (NodeId origin : load.origins) {
    if (origin >= nodes_.size() || !b_.ctx.nodes[origin].has_classifier()) {
      throw std::invalid_argument(
          "serve::Engine: closed-loop origin must host a classifier");
    }
  }
  think_ = load.think;
  closed_quota_ = load.num_queries;
  for (NodeId origin : load.origins) {
    for (std::size_t c = 0; c < load.clients_per_origin; ++c) {
      clients_.emplace_back(
          origin, hdc::derive_seed(load.seed, clients_.size()));
    }
  }
  for (std::size_t c = 0; c < clients_.size(); ++c) client_submit(c, 0);
  return drain();
}

void Engine::dispatch(const Ev& ev) {
  switch (ev.kind) {
    case Ev::Kind::kArrival:
      on_arrival(ev);
      break;
    case Ev::Kind::kDeadline:
      on_deadline(ev);
      break;
    case Ev::Kind::kServiceDone:
      on_service_done(ev);
      break;
    case Ev::Kind::kEscalateArrive:
      on_escalate_arrive(ev);
      break;
    case Ev::Kind::kFailoverRetry:
      on_failover_retry(ev);
      break;
  }
}

ServeReport Engine::drain() {
  if (spent_) throw std::logic_error("serve::Engine: already run");
  while (!events_.empty()) {
    const Ev ev = events_.pop().payload;
    dispatch(ev);
  }
  return finish();
}

ServeReport Engine::finish() {
  spent_ = true;
  if (in_flight_ != 0) {
    throw std::logic_error("serve::Engine: queries still in flight at drain");
  }
  std::size_t peak = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeServeStats& s = report_.per_node[n];
    s = nodes_[n].stats;
    s.shed = nodes_[n].queue.shed();
    s.peak_queue = nodes_[n].queue.peak();
    peak = std::max(peak, s.peak_queue);
  }
  m_queue_peak_.set(static_cast<double>(peak));
  std::vector<SimTime> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  report_.p50_latency_ns = nearest_rank(sorted, 0.50);
  report_.p95_latency_ns = nearest_rank(sorted, 0.95);
  report_.p99_latency_ns = nearest_rank(sorted, 0.99);
  if (!sorted.empty()) {
    long double sum = 0;
    for (const SimTime v : sorted) sum += static_cast<long double>(v);
    report_.mean_latency_ns =
        static_cast<double>(sum / static_cast<long double>(sorted.size()));
  }
  return std::move(report_);
}

}  // namespace edgehd::serve
