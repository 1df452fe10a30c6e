#include "simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace edgehd::net {

Simulator::Simulator(Topology topology, Medium medium)
    : topology_(std::move(topology)),
      links_(topology_.num_nodes(),
             Link{medium, 0, 0, 0.0, false, {}, {}, {}, {}}),
      node_busy_until_(topology_.num_nodes(), 0),
      stats_(topology_.num_nodes()),
      crash_prone_(topology_.num_nodes(), 0) {
  if constexpr (obs::kEnabled) {
    auto& reg = obs::MetricsRegistry::global();
    obs_.bytes_tx = reg.counter("net.bytes_tx");
    obs_.bytes_rx = reg.counter("net.bytes_rx");
    obs_.bytes_retransmitted = reg.counter("net.bytes_retransmitted");
    obs_.packets_tx = reg.counter("net.packets_tx");
    obs_.packets_rx = reg.counter("net.packets_rx");
    obs_.packets_dropped = reg.counter("net.packets_dropped");
    obs_.sends_suppressed = reg.counter("net.sends_suppressed");
    obs_.retransmissions = reg.counter("net.retransmissions");
    obs_.reliable_delivered = reg.counter("net.reliable.delivered");
    obs_.reliable_failed = reg.counter("net.reliable.failed");
    obs_.reliable_attempts = reg.counter("net.reliable.attempts");
    obs_.events_scheduled = reg.counter("sim.events.scheduled");
    obs_.events_dispatched = reg.counter("sim.events.dispatched");
    obs_.queue_depth_peak = reg.gauge("sim.queue.depth");
    // Per-link mirrors only for deployments small enough that the registry's
    // fixed slot budget (and 4 string interns per link) stays reasonable; a
    // 100k-node fleet keeps the aggregate counters above.
    if (topology_.num_nodes() <= kPerLinkObsMaxNodes) {
      for (NodeId child = 0; child < links_.size(); ++child) {
        if (child == topology_.root()) continue;
        const std::string prefix = "net.link." + std::to_string(child) + ".";
        links_[child].obs_tx_bytes = reg.counter(prefix + "tx_bytes");
        links_[child].obs_rx_bytes = reg.counter(prefix + "rx_bytes");
        links_[child].obs_drop_bytes = reg.counter(prefix + "drop_bytes");
        links_[child].obs_retx_bytes = reg.counter(prefix + "retx_bytes");
      }
    }
  }
}

Simulator::~Simulator() { flush_event_obs(); }

void Simulator::set_link_medium(NodeId child, Medium medium) {
  if (child >= links_.size()) {
    throw NodeIdError("Simulator::set_link_medium", child, links_.size());
  }
  if (child == topology_.root()) {
    throw std::invalid_argument("Simulator: root has no uplink");
  }
  links_[child].medium = std::move(medium);
}

void Simulator::set_fault_plan(FaultPlan plan) {
  faults_ = std::move(plan);
  faults_active_ = !faults_.empty();
  // Pre-resolve which nodes/links the plan can ever touch, and the composed
  // per-link loss probability, so the per-packet path never scans the plan's
  // window/loss lists for the (at fleet scale, vast) unaffected majority.
  std::fill(crash_prone_.begin(), crash_prone_.end(), std::uint8_t{0});
  for (Link& link : links_) {
    link.loss_p = 0.0;
    link.outage_prone = false;
  }
  for (const CrashWindow& w : faults_.crashes()) {
    if (w.node < crash_prone_.size()) crash_prone_[w.node] = 1;
  }
  for (const OutageWindow& w : faults_.outages()) {
    if (w.child < links_.size()) links_[w.child].outage_prone = true;
  }
  for (const LinkLoss& l : faults_.losses()) {
    if (l.child < links_.size()) {
      // Same independent-process composition as FaultPlan::loss_probability.
      links_[l.child].loss_p =
          1.0 - (1.0 - links_[l.child].loss_p) * (1.0 - l.probability);
    }
  }
}

void Simulator::push_event(SimTime time, EventFn fn) {
  queue_.push(time, next_seq_++, std::move(fn));
  ++events_scheduled_;
  peak_depth_ = std::max(peak_depth_, queue_.size());
}

void Simulator::schedule(SimTime delay, EventFn fn) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator: negative delay");
  }
  push_event(now_ + delay, std::move(fn));
}

void Simulator::compute(NodeId node, SimTime duration, double power_w,
                        EventFn on_done) {
  if (node >= node_busy_until_.size()) {
    throw NodeIdError("Simulator::compute", node, node_busy_until_.size());
  }
  if (duration < 0) {
    throw std::invalid_argument("Simulator: negative compute duration");
  }
  const SimTime start = std::max(now_, node_busy_until_[node]);
  const SimTime end = start + duration;
  node_busy_until_[node] = end;
  stats_[node].compute_busy += duration;
  stats_[node].compute_energy_j +=
      power_w * static_cast<double>(duration) / 1e9;
  push_event(end, std::move(on_done));
}

Simulator::Link& Simulator::uplink_of(NodeId from, NodeId to) {
  // The link is stored at its child endpoint; sends may go either direction.
  if (topology_.parent(from) == to) return links_[from];
  if (topology_.parent(to) == from) return links_[to];
  throw std::invalid_argument("Simulator: send endpoints are not adjacent");
}

void Simulator::transmit(NodeId from, NodeId to, std::uint64_t bytes,
                         TransmitFn on_result) {
  Link& link = uplink_of(from, to);
  const NodeId link_child = topology_.parent(from) == to ? from : to;
  // Wireless links share one collision domain: a transfer must also wait for
  // the whole medium to go quiet, and occupies it while in the air. The slot
  // is reserved now (the queuing discipline); stats are charged when the
  // transfer actually starts and ends.
  const SimTime floor = link.medium.shared_domain
                            ? std::max(link.busy_until, shared_busy_until_)
                            : link.busy_until;
  const SimTime start = std::max(now_, floor);
  const SimTime duration = transfer_time(link.medium, bytes);
  const SimTime end = start + duration;
  link.busy_until = end;
  if (link.medium.shared_domain) shared_busy_until_ = end;

  // Capture cost parameters now so a later set_link_medium cannot
  // retroactively change this transfer's accounting. The transfer end and
  // the per-second energy scale are *recomputed when each leg fires* (the
  // start event runs exactly at `start`, so end == now_ + duration there);
  // dropping those two captures keeps both legs inside EventFn's buffer.
  const double tx_power = link.medium.tx_power_w;
  const double rx_power = link.medium.rx_power_w;

  push_event(start, [this, from, to, bytes, link_child, duration, tx_power,
                     rx_power, cb = std::move(on_result)]() mutable {
    if (faults_active_ &&
        ((crash_prone_[from] != 0 && !faults_.node_up(from, now_)) ||
         (links_[link_child].outage_prone &&
          !faults_.link_up(link_child, now_)))) {
      ++stats_[from].sends_suppressed;
      obs_.sends_suppressed.inc();
      if (cb) cb(TransmitResult::kNotSent);
      return;
    }
    // The attempt hits the air: charge the sender.
    stats_[from].tx_time += duration;
    stats_[from].bytes_tx += bytes;
    ++stats_[from].packets_tx;
    stats_[from].comm_energy_j += tx_power * static_cast<double>(duration) / 1e9;
    obs_.bytes_tx.inc(bytes);
    obs_.packets_tx.inc();
    links_[link_child].obs_tx_bytes.inc(bytes);
    const bool lost = faults_active_ &&
                      faults_.drop(link_child, links_[link_child].attempts++,
                                   links_[link_child].loss_p);
    push_event(now_ + duration,
               [this, from, to, bytes, link_child, duration, rx_power, lost,
                cb = std::move(cb)]() mutable {
      if (lost || (faults_active_ && crash_prone_[to] != 0 &&
                   !faults_.node_up(to, now_))) {
        ++stats_[from].packets_dropped;
        obs_.packets_dropped.inc();
        links_[link_child].obs_drop_bytes.inc(bytes);
        if (cb) cb(TransmitResult::kLostInAir);
        return;
      }
      stats_[to].rx_time += duration;
      stats_[to].bytes_rx += bytes;
      ++stats_[to].packets_rx;
      stats_[to].comm_energy_j +=
          rx_power * static_cast<double>(duration) / 1e9;
      obs_.bytes_rx.inc(bytes);
      obs_.packets_rx.inc();
      links_[link_child].obs_rx_bytes.inc(bytes);
      if (cb) cb(TransmitResult::kDelivered);
    });
  });
}

void Simulator::send(NodeId from, NodeId to, std::uint64_t bytes,
                     CompletionFn on_delivered) {
  transmit(from, to, bytes,
           [cb = std::move(on_delivered)](TransmitResult r) mutable {
             if (r == TransmitResult::kDelivered && cb) cb();
           });
}

// ---- reliable transport ----------------------------------------------------

struct Simulator::ReliableState {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint64_t bytes = 0;
  ReliableConfig cfg;
  OutcomeFn on_outcome;
  std::size_t attempts = 0;        ///< payload transmissions issued
  std::uint64_t bytes_on_wire = 0; ///< payload bytes that hit the air
  bool receiver_got = false;
  bool done = false;
  NodeId link_child = kNoNode;     ///< child endpoint of the traversed link
  std::uint64_t span = 0;          ///< open "net.send_reliable" trace span
};

void Simulator::send_reliable(NodeId from, NodeId to, std::uint64_t bytes,
                              OutcomeFn on_outcome, ReliableConfig config) {
  if (config.ack_timeout <= 0 || config.backoff_factor < 1.0 ||
      config.backoff_cap < 0 || config.jitter < 0.0 || config.jitter >= 1.0) {
    throw std::invalid_argument("Simulator: malformed ReliableConfig");
  }
  auto st = std::make_shared<ReliableState>();
  st->from = from;
  st->to = to;
  st->bytes = bytes;
  st->cfg = config;
  st->on_outcome = std::move(on_outcome);
  st->link_child = topology_.parent(from) == to ? from : to;
  // The span opens at the call and closes in finish_reliable, both stamped
  // with simulator virtual time; each retry lands as a child instant.
  st->span = obs::Tracer::global().begin("net.send_reliable", now_,
                                         /*parent=*/0, from, bytes);
  reliable_attempt(std::move(st));
}

void Simulator::reliable_attempt(std::shared_ptr<ReliableState> st) {
  ++st->attempts;
  const std::size_t attempt = st->attempts;
  transmit(st->from, st->to, st->bytes,
           [this, st, attempt](TransmitResult r) {
             if (r == TransmitResult::kNotSent) return;  // timer drives retry
             st->bytes_on_wire += st->bytes;
             if (attempt > 1) {
               ++stats_[st->from].retransmissions;
               stats_[st->from].bytes_retransmitted += st->bytes;
               obs_.retransmissions.inc();
               obs_.bytes_retransmitted.inc(st->bytes);
               links_[st->link_child].obs_retx_bytes.inc(st->bytes);
               obs::Tracer::global().instant("net.retry", now_, st->span,
                                             attempt, st->bytes);
             }
             if (r != TransmitResult::kDelivered) return;
             st->receiver_got = true;
             // The receiver acks every received copy (duplicates re-ack, so
             // a lost ack is recoverable). Completion fires on the first ack
             // that makes it back.
             transmit(st->to, st->from, st->cfg.ack_bytes,
                      [this, st](TransmitResult ar) {
                        if (ar == TransmitResult::kDelivered && !st->done) {
                          finish_reliable(st, true);
                        }
                      });
           });

  // Exponential backoff with seeded jitter: timeout_k = ack_timeout *
  // backoff^(k-1), scaled by a deterministic draw from [1-j, 1+j).
  double timeout = static_cast<double>(st->cfg.ack_timeout) *
                   std::pow(st->cfg.backoff_factor,
                            static_cast<double>(attempt - 1));
  if (st->cfg.jitter > 0.0) {
    const std::uint64_t word = detail::mix64(
        faults_.seed() ^
        detail::mix64(0xa0761d6478bd642fULL * (++jitter_draws_)));
    timeout *= 1.0 - st->cfg.jitter +
               2.0 * st->cfg.jitter * detail::unit_from(word);
  }
  SimTime wait = std::max<SimTime>(1, std::llround(timeout));
  if (st->cfg.backoff_cap > 0) wait = std::min(wait, st->cfg.backoff_cap);
  schedule(wait, [this, st] {
    if (st->done) return;
    if (st->attempts > st->cfg.max_retries) {
      finish_reliable(st, false);
      return;
    }
    reliable_attempt(st);
  });
}

void Simulator::finish_reliable(std::shared_ptr<ReliableState> st,
                                bool delivered) {
  st->done = true;
  (delivered ? obs_.reliable_delivered : obs_.reliable_failed).inc();
  obs_.reliable_attempts.inc(st->attempts);
  obs::Tracer::global().end(st->span, now_);
  if (!st->on_outcome) return;
  DeliveryOutcome outcome;
  outcome.delivered = delivered;
  outcome.attempts = st->attempts;
  outcome.bytes_on_wire = st->bytes_on_wire;
  outcome.completed_at = now_;
  st->on_outcome(outcome);
}

void Simulator::send_to_root(NodeId from, std::uint64_t bytes,
                             CompletionFn on_delivered) {
  if (from == topology_.root()) {
    push_event(now_, [cb = std::move(on_delivered)]() mutable {
      if (cb) cb();
    });
    return;
  }
  const NodeId next = topology_.parent(from);
  // Forward the remaining hops once this hop is delivered. This capture list
  // (this + next + bytes + the user's CompletionFn) exceeds CompletionFn's
  // own buffer, so each hop's continuation takes the documented heap
  // fallback — send_to_root is a per-message convenience, not the fleet
  // hot path (the cost model's fleet-scale flows call send per hop).
  send(from, next, bytes,
       [this, next, bytes, cb = std::move(on_delivered)]() mutable {
         send_to_root(next, bytes, std::move(cb));
       });
}

SimTime Simulator::run() {
  while (!queue_.empty()) {
    auto ev = queue_.pop();
    now_ = ev.time;
    makespan_ = std::max(makespan_, now_);
    ++events_dispatched_;
    if (ev.payload) ev.payload();
  }
  flush_event_obs();
  return makespan_;
}

void Simulator::flush_event_obs() noexcept {
  // Event accounting lives in plain members on the hot path and is mirrored
  // to the registry as one delta per run (and at destruction), so the
  // schedule→dispatch loop never pays a registry write per event.
  obs_.events_scheduled.inc(events_scheduled_ - obs_flushed_scheduled_);
  obs_.events_dispatched.inc(events_dispatched_ - obs_flushed_dispatched_);
  obs_flushed_scheduled_ = events_scheduled_;
  obs_flushed_dispatched_ = events_dispatched_;
  obs_.queue_depth_peak.set(static_cast<double>(peak_depth_));
}

const NodeStats& Simulator::stats(NodeId node) const {
  if (node >= stats_.size()) {
    throw NodeIdError("Simulator::stats", node, stats_.size());
  }
  return stats_[node];
}

double Simulator::total_energy_j() const {
  double total = 0.0;
  for (const auto& s : stats_) {
    total += s.compute_energy_j + s.comm_energy_j;
  }
  return total;
}

std::uint64_t Simulator::total_bytes_transferred() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.bytes_tx;
  return total;
}

std::uint64_t Simulator::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.retransmissions;
  return total;
}

std::uint64_t Simulator::total_drops() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) {
    total += s.packets_dropped + s.sends_suppressed;
  }
  return total;
}

}  // namespace edgehd::net
