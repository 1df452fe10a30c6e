// Deterministic virtual-time serving engine (DESIGN.md §10).
//
// The engine runs routed inference as an online service: queries arrive at
// origin nodes, wait in bounded per-node admission queues, and are drained
// in dynamic micro-batches through the packed predict_batch kernels. A
// low-confidence result opens an *async escalation session*: the query ships
// upward (QueryEscalate accounting, one virtual escalate_latency per hop)
// and joins the ancestor's queue, while the origin keeps draining its own
// queue — nothing blocks on an in-flight escalation.
//
// Determinism contract: the event loop is single-threaded over a calendar
// queue keyed by (virtual time, sequence number); worker threads are used
// only inside encode_batch / predict_batch, which are bit-identical to
// their serial forms. For a fixed (config, bindings, load spec, fault plan)
// the reply sequence, every counter and every virtual-latency quantile are
// identical across runs and worker counts.
//
// Routing matches the synchronous walk decision for decision: every verdict
// goes through proto::next_step, the same escalation rule route_query runs,
// under a net::Liveness rebuilt per virtual instant. Accounting matches it
// byte-for-byte: a served query is charged proto::settle, each escalation
// hop one QueryEscalate envelope and each served reply one QueryReply
// envelope — the engine calls the same proto::account_* helpers route_query
// uses. Queries shed at admission never enter the routed accounting (they
// were refused service, not served badly).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include <memory>

#include "config.hpp"
#include "hdc/hypervector.hpp"
#include "loadgen.hpp"
#include "net/detector.hpp"
#include "net/event_queue.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "proto/routing.hpp"
#include "queue.hpp"
#include "runtime/thread_pool.hpp"

namespace edgehd::serve {

/// Everything the engine borrows from the deployment it serves. The facade
/// (core::EdgeHdSystem::serve_start) fills this in; tests can wire it by
/// hand. All referenced objects must outlive the engine.
struct Bindings {
  /// Routing view of the hierarchy. The engine replaces `liveness` per
  /// virtual time from its fault plan (and detector); everything else
  /// (threshold, compression, failover policy, escalation counter) is used
  /// as given.
  proto::RoutingContext ctx;
  runtime::ThreadPool* pool = nullptr;
  /// Failure-detection config. When enabled and a fault plan is installed,
  /// the engine owns a FailureDetector advanced in virtual time; reachability
  /// decisions run on its SuspicionView (the mask stays world simulation)
  /// and in-flight escalations fail over with bounded retries.
  net::DetectorConfig detector;

  /// Size of the query pool; `sample` indices below are in [0, num_samples).
  std::uint64_t num_samples = 0;
  /// Optional ground truth per sample (empty = accuracy not tracked).
  std::span<const std::size_t> labels;

  /// Batched leaf encoding: the feature slices of `samples` at leaf `leaf`,
  /// encoded in that leaf's hypervector space (bit-identical to per-sample
  /// encode). This is the hot path — a leaf micro-batch never encodes more
  /// of the hierarchy than its own slice.
  std::function<std::vector<hdc::BipolarHV>(
      net::NodeId leaf, std::span<const std::uint64_t> samples)>
      encode_leaf_batch;
  /// Full-hierarchy encoding of one sample (indexed by NodeId) under the
  /// `world` mask (unreachable contributions silenced; an empty mask
  /// silences nothing) — computed lazily when a query first escalates, then
  /// cached on the query.
  std::function<std::vector<hdc::BipolarHV>(std::uint64_t sample,
                                            const net::HealthMask& world)>
      encode_all;

  /// Routed-inference counters owned by the facade ("core.routed.*"); the
  /// engine advances the same handles the synchronous path advances, so
  /// serving and infer_routed produce one coherent accounting.
  obs::Counter routed_queries;
  obs::Counter routed_degraded;
  obs::Counter routed_unserved;
  obs::Counter routed_bytes;
  obs::Counter routed_retry_bytes;
  obs::Histogram routed_confidence;
  /// Per-node serve counters, indexed by NodeId (may be empty).
  std::span<const obs::Counter> node_serves;
};

/// One finalized query, in finalize order.
struct Reply {
  std::uint64_t query_id = 0;
  std::uint64_t sample = 0;
  net::NodeId origin = net::kNoNode;
  proto::RoutedResult result;
  net::SimTime arrival = 0;    ///< admission instant
  net::SimTime completed = 0;  ///< reply lands back at the origin
};

/// Per-node service tallies.
struct NodeServeStats {
  std::uint64_t admitted = 0;   ///< entered the queue (arrivals + escalations)
  std::uint64_t shed = 0;       ///< refused at this node's queue
  std::uint64_t served = 0;     ///< finalized with result.node == this node
  std::uint64_t batches = 0;    ///< predict_batch dispatches
  std::size_t peak_queue = 0;   ///< high-water queue depth
};

/// Aggregate outcome of one run. Every field is deterministic for a fixed
/// (config, bindings, load, plan) — including the latency quantiles, which
/// are exact nearest-rank statistics over virtual-time latencies.
struct ServeReport {
  std::uint64_t submitted = 0;        ///< arrivals offered to admission
  std::uint64_t served = 0;
  std::uint64_t served_degraded = 0;  ///< subset of served
  std::uint64_t unserved = 0;         ///< admitted but unservable (faults)
  std::uint64_t shed_admission = 0;   ///< refused at the origin queue
  std::uint64_t shed_escalated = 0;   ///< escalation refused upstream; the
                                      ///< query was served at its best-so-far
                                      ///< node instead
  std::uint64_t escalation_hops = 0;
  // ---- failover accounting (detector mode; all zero on the oracle path) ----
  std::uint64_t failover_retries = 0;   ///< bounded re-admissions scheduled
  std::uint64_t failover_reroutes = 0;  ///< queries that escalated after retry
  std::uint64_t failover_exhausted = 0; ///< retry budget spent; settled local
  std::uint64_t batches = 0;
  std::uint64_t correct = 0;  ///< served with label == ground truth
  std::uint64_t slo_violations = 0;
  net::SimTime makespan = 0;  ///< last reply's completion instant
  double p50_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double mean_latency_ns = 0.0;
  /// FNV-1a over the finalize-order reply stream (ids, labels, confidence
  /// bits, bytes, completion times) — one number that pins the entire
  /// observable behaviour for determinism tests.
  std::uint64_t reply_hash = 0;
  std::vector<Reply> replies;  ///< populated when ServeConfig::record_replies
  std::vector<NodeServeStats> per_node;  ///< indexed by NodeId
};

/// Closed-loop driver: `clients` virtual clients per origin, each submitting
/// one query, waiting for its reply plus `think`, then submitting the next,
/// until `num_queries` total have been issued.
struct ClosedLoopSpec {
  std::vector<net::NodeId> origins;
  std::size_t clients_per_origin = 4;
  net::SimTime think = 5 * net::kMillisecond;
  std::uint64_t num_queries = 10'000;
  std::uint64_t seed = 1;
};

class Engine {
 public:
  Engine(ServeConfig config, Bindings bindings);

  /// Installs the fault timeline; health is re-snapshotted as virtual time
  /// advances, so outage windows open and close mid-run.
  void set_fault_plan(net::FaultPlan plan);

  /// Scripted open-loop arrival (any order; run() sorts stably by time).
  /// `origin` must host a classifier.
  void submit(net::SimTime at, net::NodeId origin, std::uint64_t sample);

  /// Drains scripted arrivals to completion. Single-shot: the engine is
  /// spent after any run_*.
  ServeReport run();
  /// Open loop: merges generated arrivals with any scripted ones.
  ServeReport run(const LoadSpec& load);
  /// Closed loop: think-time clients, arrival rate set by service itself.
  ServeReport run(const ClosedLoopSpec& load);

 private:
  struct Ev {
    net::SimTime t = 0;
    std::uint64_t seq = 0;
    enum class Kind : std::uint8_t {
      kArrival,        ///< node=origin, a=sample, b=client (or kNoClient)
      kDeadline,       ///< node, a=deadline epoch
      kServiceDone,    ///< node
      kEscalateArrive, ///< node=destination, a=query slot
      kFailoverRetry   ///< node=holder of the best verdict, a=query slot
    } kind = Kind::kArrival;
    net::NodeId node = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  struct QueryState {
    net::SimTime arrival = 0;
    net::NodeId origin = 0;
    std::uint64_t sample = 0;
    std::uint64_t query_id = 0;
    std::uint64_t client = 0;
    std::uint32_t hops = 0;
    std::uint32_t failovers = 0;       ///< failover retries consumed
    bool rerouted = false;             ///< escalated again after a failover
    proto::RoutedResult best;          ///< deepest verdict so far
    std::vector<hdc::BipolarHV> hvs;   ///< cached full encodings (lazy)
  };

  struct NodeState {
    AdmissionQueue queue;
    bool busy = false;
    std::uint64_t deadline_epoch = 0;
    std::vector<std::uint64_t> in_service;
    NodeServeStats stats;
  };

  static constexpr std::uint64_t kNoClient = ~std::uint64_t{0};

  void schedule(net::SimTime t, Ev::Kind kind, net::NodeId node,
                std::uint64_t a = 0, std::uint64_t b = 0);
  /// Health snapshot governing instant `t` (cached between changes).
  void refresh_mask(net::SimTime t);
  std::uint64_t alloc_slot();
  void release_slot(std::uint64_t slot);

  void on_arrival(const Ev& ev);
  void on_deadline(const Ev& ev);
  void on_service_done(const Ev& ev);
  void on_escalate_arrive(const Ev& ev);
  void on_failover_retry(const Ev& ev);
  /// Schedules a bounded failover retry for `slot`; false when the budget is
  /// spent (the caller settles the query instead).
  bool try_failover(std::uint64_t slot, net::SimTime now);

  /// Starts a batch or arms the deadline timer, per the flush policy.
  void maybe_flush(net::NodeId node, net::SimTime now);
  /// Routes one predicted query onward: finalize here or escalate.
  void decide(std::uint64_t slot, net::SimTime now);
  /// Ensures the query's full-hierarchy encodings are cached.
  void ensure_hvs(QueryState& q);
  void finalize_served(std::uint64_t slot, net::SimTime now, bool cut);
  /// Settles a query whose escalation faults cut short: served degraded from
  /// its deepest verdict when it holds one and the policy allows, unserved
  /// otherwise.
  void finalize_cut(std::uint64_t slot, net::SimTime now);
  /// Fails over everything queued at a node observed down: queries with a
  /// deeper verdict serve degraded from it, the rest go unserved.
  void fail_node_queue(net::NodeId node, net::SimTime now);
  void finalize_unserved(std::uint64_t slot, net::SimTime now);
  void record_reply(const QueryState& q, const proto::RoutedResult& result,
                    net::SimTime completed);

  void dispatch(const Ev& ev);
  ServeReport drain();
  ServeReport finish();

  ServeConfig cfg_;
  Bindings b_;
  std::optional<net::FaultPlan> plan_;
  net::HealthMask mask_;
  net::SimTime mask_time_ = -1;
  /// Owned failure detector (detector mode); advanced by refresh_mask.
  std::unique_ptr<net::FailureDetector> detector_;

  /// Pending events in the shared calendar queue (net/event_queue.hpp); it
  /// pops in the exact (t, seq) order the old binary heap produced, so
  /// ServeReports are bit-identical to the priority_queue implementation.
  net::CalendarQueue<Ev> events_;
  std::uint64_t next_seq_ = 0;

  std::vector<NodeState> nodes_;
  std::vector<QueryState> slots_;
  std::vector<std::uint64_t> free_slots_;
  std::uint64_t next_query_id_ = 0;
  std::uint64_t in_flight_ = 0;

  // ---- closed-loop state ----------------------------------------------------
  struct Client {
    net::NodeId origin = 0;
    hdc::Rng rng;
    Client(net::NodeId o, std::uint64_t seed) : origin(o), rng(seed) {}
  };
  std::vector<Client> clients_;
  net::SimTime think_ = 0;
  std::uint64_t closed_quota_ = 0;
  std::uint64_t closed_issued_ = 0;
  void client_submit(std::uint64_t client, net::SimTime at);

  // ---- results --------------------------------------------------------------
  ServeReport report_;
  std::vector<net::SimTime> latencies_;
  bool spent_ = false;

  // ---- serving-plane metrics (virtual time => registered stable) -----------
  obs::Counter m_submitted_, m_shed_admission_, m_shed_escalated_, m_batches_,
      m_slo_violations_;
  obs::Counter m_failover_retries_, m_failover_reroutes_,
      m_failover_exhausted_;
  obs::Histogram m_latency_;
  obs::Gauge m_queue_peak_;
};

}  // namespace edgehd::serve
