// Discrete-event network simulator — the NS-3 substitute (see DESIGN.md).
//
// Models an EdgeHD deployment as a tree of nodes exchanging store-and-forward
// messages over half-duplex links. Three resources are tracked per node:
// compute occupancy (a node runs one task at a time), link occupancy (one
// transfer at a time per parent-child link), and energy (compute power ×
// busy time plus radio power × air time). The simulator is deterministic:
// ties in event time are broken by insertion order, and every fault draw is
// a stateless function of (FaultPlan seed, link, attempt index), so a run is
// reproducible bit-for-bit from (seed, plan).
//
// Event core (DESIGN.md §12): pending events live in a calendar/ladder
// queue (event_queue.hpp) that preserves the exact (time, seq) total order
// of the seed binary heap, and callbacks are small-buffer-optimized
// InlineFunctions (inline_fn.hpp) sized so the schedule→dispatch hot path —
// timers, compute completions, both transfer legs with their nested
// delivery callbacks — allocates nothing. bench_fleet gates the resulting
// schedule+dispatch throughput at ≥3× the seed heap at 100k nodes.
//
// Fault semantics (see fault.hpp): a transfer's sender-side conditions —
// sender alive, link not in an outage window, Bernoulli loss draw — are
// evaluated when the transfer *starts*; the receiver must be alive when it
// *ends*. A transfer already in the air when an outage window opens still
// lands. Stats are charged when they happen (tx side at transfer start, rx
// side at delivery), so snapshots taken mid-run are causally consistent.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "event_queue.hpp"
#include "fault.hpp"
#include "inline_fn.hpp"
#include "medium.hpp"
#include "obs/metrics.hpp"
#include "topology.hpp"

namespace edgehd::net {

/// Typed rejection for an out-of-range node id handed to the simulator
/// (stats, compute, set_link_medium). Derives std::out_of_range so existing
/// catch sites keep working; carries the offending id and the node count so
/// callers can report *which* id was bad instead of silently indexing UB.
class NodeIdError : public std::out_of_range {
 public:
  NodeIdError(const char* where, NodeId id, std::size_t num_nodes)
      : std::out_of_range(std::string(where) + ": node id " +
                          std::to_string(id) + " out of range (have " +
                          std::to_string(num_nodes) + " nodes)"),
        id_(id),
        num_nodes_(num_nodes) {}

  NodeId id() const noexcept { return id_; }
  std::size_t num_nodes() const noexcept { return num_nodes_; }

 private:
  NodeId id_;
  std::size_t num_nodes_;
};

/// Per-node accounting accumulated over a run.
struct NodeStats {
  SimTime compute_busy = 0;   ///< total time the node's processor was busy
  SimTime tx_time = 0;        ///< total air time as sender
  SimTime rx_time = 0;        ///< total air time as receiver
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  double compute_energy_j = 0.0;
  double comm_energy_j = 0.0;
  // ---- fault/transport accounting ----------------------------------------
  std::uint64_t packets_tx = 0;  ///< transmission attempts that hit the air
  std::uint64_t packets_rx = 0;  ///< packets received intact
  /// Attempts lost in transit (loss draw, or receiver dead at delivery);
  /// charged to the sender.
  std::uint64_t packets_dropped = 0;
  /// Attempts that never transmitted (sender crashed or link in outage at
  /// transfer start); charged to the sender. No bytes/energy are spent.
  std::uint64_t sends_suppressed = 0;
  /// Payload retransmissions issued by send_reliable (as sender).
  std::uint64_t retransmissions = 0;
  std::uint64_t bytes_retransmitted = 0;  ///< payload bytes of those retries
};

/// Tunables for the reliable-transport primitive. Acks are modelled as
/// zero-byte control frames by default (they cost one link latency and can
/// be lost, but carry no charged bytes).
struct ReliableConfig {
  SimTime ack_timeout = 50 * kMillisecond;  ///< wait before first retry
  std::size_t max_retries = 5;              ///< cap: at most 1 + this attempts
  double backoff_factor = 2.0;              ///< timeout multiplier per retry
  /// Upper bound on any single (jittered) backoff wait; 0 disables the cap,
  /// which reproduces the pre-cap behaviour bit-for-bit.
  SimTime backoff_cap = 0;
  /// Uniform jitter: each backoff is scaled by a factor drawn from
  /// [1 - jitter, 1 + jitter) using the plan-seeded RNG.
  double jitter = 0.1;
  std::uint64_t ack_bytes = 0;  ///< wire bytes charged per ack frame
};

/// Sender-side result of one send_reliable call.
struct DeliveryOutcome {
  bool delivered = false;   ///< an ack came back within the retry budget
  std::size_t attempts = 0; ///< payload transmissions issued (1 = no retry)
  /// Payload bytes placed on the air across all attempts — equals
  /// payload × attempts when no attempt was suppressed.
  std::uint64_t bytes_on_wire = 0;
  SimTime completed_at = 0; ///< ack arrival, or the giving-up instant
};

/// Event-driven simulator over a Topology with a single link medium (the
/// paper evaluates one medium per experiment; use set_link_medium for mixed
/// deployments).
class Simulator {
 public:
  // ---- hot-path callback types (SBO budgets, see DESIGN.md §12) -----------
  /// User-facing completion callback (send / send_to_root delivery hooks).
  /// 56 bytes covers "a few references plus a couple of scalars".
  using CompletionFn = InlineFunction<void(), 56>;
  /// Queue-resident event callback. 208 bytes is sized to the largest
  /// internal closure — a transfer leg: 8 scalar captures (64 bytes) plus
  /// the nested per-attempt TransmitFn (144 bytes) — so the whole transfer
  /// pipeline stays inline. DESIGN.md §12 shows the arithmetic.
  using EventFn = InlineFunction<void(), 208>;
  /// send_reliable outcome hook.
  using OutcomeFn = InlineFunction<void(const DeliveryOutcome&), 56>;

  /// Per-link registry mirrors ("net.link.<child>.*") are interned only for
  /// topologies up to this many nodes: the global MetricsRegistry has a
  /// fixed slot budget, and a 100k-node fleet would both exhaust it and pay
  /// 4 string interns per link. Aggregate net.* and sim.* counters are
  /// always live; per-link attribution is a small-deployment affordance.
  static constexpr std::size_t kPerLinkObsMaxNodes = 4096;

  Simulator(Topology topology, Medium medium);
  ~Simulator();  ///< flushes sim.* event counters to the registry

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = delete;
  Simulator& operator=(Simulator&&) = delete;

  const Topology& topology() const noexcept { return topology_; }
  SimTime now() const noexcept { return now_; }

  /// Overrides the medium of the link between `child` and its parent.
  /// Throws NodeIdError for out-of-range ids, std::invalid_argument for the
  /// root (which has no uplink).
  void set_link_medium(NodeId child, Medium medium);

  /// Installs the fault plan governing this run. An empty plan restores
  /// fault-free behaviour exactly (the fault path is zero-cost when off).
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const noexcept { return faults_; }

  /// Schedules `fn` to run `delay` from now.
  void schedule(SimTime delay, EventFn fn);

  /// Occupies `node`'s processor for `duration` at `power_w`, starting when
  /// the node becomes free; `on_done` (optional) fires at completion.
  void compute(NodeId node, SimTime duration, double power_w,
               EventFn on_done = {});

  /// Sends `bytes` one hop between `from` and `to` (which must be
  /// parent/child in the topology). The link serializes transfers;
  /// `on_delivered` (optional) fires when the last byte arrives. Under a
  /// fault plan the message may be dropped, in which case `on_delivered`
  /// never fires and the sender's drop counters advance.
  void send(NodeId from, NodeId to, std::uint64_t bytes,
            CompletionFn on_delivered = {});

  /// Reliable one-hop transfer: retransmits until an ack arrives, the retry
  /// cap is hit, or the sender finds itself unable to transmit. Backoff is
  /// exponential with seeded jitter; duplicate deliveries at the receiver
  /// are suppressed (the payload callback semantics of `on_outcome` fire
  /// exactly once, from the sender's point of view).
  void send_reliable(NodeId from, NodeId to, std::uint64_t bytes,
                     OutcomeFn on_outcome = {}, ReliableConfig config = {});

  /// Multi-hop convenience: forwards `bytes` hop by hop from `from` up to
  /// the root (store-and-forward through every gateway), then fires
  /// `on_delivered`.
  void send_to_root(NodeId from, std::uint64_t bytes,
                    CompletionFn on_delivered = {});

  /// Runs until the event queue drains. Returns the completion time of the
  /// last event (the makespan).
  SimTime run();

  /// Throws NodeIdError (a std::out_of_range) for out-of-range ids.
  const NodeStats& stats(NodeId node) const;

  /// Sum of compute + communication energy over all nodes.
  double total_energy_j() const;

  /// Sum of bytes placed on the air/wire (each hop counted once).
  std::uint64_t total_bytes_transferred() const;

  /// Sum of retransmissions over all nodes.
  std::uint64_t total_retransmissions() const;

  /// Sum of dropped + suppressed transmission attempts over all nodes.
  std::uint64_t total_drops() const;

  // ---- event-core accounting (mirrored to sim.* obs counters) -------------
  std::uint64_t events_scheduled() const noexcept { return events_scheduled_; }
  std::uint64_t events_dispatched() const noexcept {
    return events_dispatched_;
  }
  std::size_t queue_depth() const noexcept { return queue_.size(); }
  std::size_t peak_queue_depth() const noexcept { return peak_depth_; }

 private:
  /// What happened to one transmission attempt.
  enum class TransmitResult : std::uint8_t {
    kDelivered,   ///< landed intact at the receiver
    kLostInAir,   ///< transmitted but dropped (loss draw / dead receiver)
    kNotSent,     ///< never transmitted (sender crashed / link outage)
  };

  /// Per-attempt result callback of one transmit(). 128 bytes fits every
  /// caller's closure (send()'s user CompletionFn, the reliable path's
  /// state handle) without the heap fallback.
  using TransmitFn = InlineFunction<void(TransmitResult), 128>;

  /// The link a node shares with its parent.
  struct Link {
    Medium medium;
    SimTime busy_until = 0;
    std::uint64_t attempts = 0;  ///< transmissions so far (fault-draw index)
    /// Composed Bernoulli loss probability from the installed fault plan,
    /// cached so the per-packet draw never rescans the plan's loss list.
    double loss_p = 0.0;
    bool outage_prone = false;  ///< the plan holds outage windows for it
    // Registry mirrors of this link's byte accounting ("net.link.<child>.*",
    // keyed by the child endpoint; cumulative across simulators that share a
    // topology node id). Empty handles until the constructor interns them —
    // and only for topologies up to kPerLinkObsMaxNodes.
    obs::Counter obs_tx_bytes;
    obs::Counter obs_rx_bytes;
    obs::Counter obs_drop_bytes;
    obs::Counter obs_retx_bytes;
  };

  /// Registry mirrors of the aggregate NodeStats accounting; every hook
  /// sits beside the stats_ mutation it shadows, so the invariant
  /// "registry == sum over NodeStats" is pinned by tests.
  struct ObsCounters {
    obs::Counter bytes_tx;
    obs::Counter bytes_rx;
    obs::Counter bytes_retransmitted;
    obs::Counter packets_tx;
    obs::Counter packets_rx;
    obs::Counter packets_dropped;
    obs::Counter sends_suppressed;
    obs::Counter retransmissions;
    obs::Counter reliable_delivered;
    obs::Counter reliable_failed;
    obs::Counter reliable_attempts;
    obs::Counter events_scheduled;
    obs::Counter events_dispatched;
    obs::Gauge queue_depth_peak;
  };

  struct ReliableState;

  Link& uplink_of(NodeId from, NodeId to);
  void push_event(SimTime time, EventFn fn);
  void flush_event_obs() noexcept;

  /// One transmission attempt with full fault semantics; `on_result` always
  /// fires exactly once (at delivery time, or at the failure instant).
  void transmit(NodeId from, NodeId to, std::uint64_t bytes,
                TransmitFn on_result);

  void reliable_attempt(std::shared_ptr<ReliableState> st);
  void finish_reliable(std::shared_ptr<ReliableState> st, bool delivered);

  Topology topology_;
  std::vector<Link> links_;  // indexed by the child endpoint
  ObsCounters obs_;
  SimTime shared_busy_until_ = 0;  ///< collision-domain occupancy (wireless)
  std::vector<SimTime> node_busy_until_;
  std::vector<NodeStats> stats_;
  CalendarQueue<EventFn> queue_;
  FaultPlan faults_;
  /// Nodes with at least one crash window — lets the hot transmit path skip
  /// the plan's window scan for the (vast) crash-free majority.
  std::vector<std::uint8_t> crash_prone_;
  bool faults_active_ = false;
  std::uint64_t jitter_draws_ = 0;  ///< backoff-jitter draw counter
  SimTime now_ = 0;
  SimTime makespan_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t obs_flushed_scheduled_ = 0;
  std::uint64_t obs_flushed_dispatched_ = 0;
  std::size_t peak_depth_ = 0;
};

}  // namespace edgehd::net
