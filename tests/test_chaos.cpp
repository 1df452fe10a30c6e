// Failure detection, churn membership and query failover (DESIGN.md §11):
// the heartbeat/phi-accrual detector (src/net/detector.*), the rejoin
// session (proto::run_rejoin) and the serving plane's detector-mode failover.
// Every assertion here is about *earned* knowledge: the FaultPlan stays the
// simulated physical world, and the protocols act only on the SuspicionView
// the detector builds from probe traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "net/detector.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"

namespace {

using namespace edgehd;
using net::DetectorConfig;
using net::FailureDetector;
using net::FaultPlan;
using net::kForever;
using net::kMillisecond;
using net::kSecond;
using net::NodeId;
using net::SimTime;
using net::SuspicionEvent;

data::Dataset chaos_dataset(std::size_t train = 400, std::size_t test = 100) {
  auto ds = data::make_synthetic("chaos", 40, 3, {10, 10, 10, 10}, train,
                                 test, 77, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  return ds;
}

core::SystemConfig chaos_cfg() {
  core::SystemConfig cfg;
  cfg.total_dim = 1000;
  cfg.batch_size = 4;
  cfg.detector.enabled = true;
  return cfg;
}

/// Comparable projection of a SuspicionEvent (the struct carries no ==).
std::tuple<SimTime, NodeId, NodeId, bool, std::uint64_t> key(
    const SuspicionEvent& e) {
  return {e.at, e.observer, e.target, e.suspected, e.incarnation};
}

// ---------------------------------------------------------------- detector

TEST(Detector, ValidatesConfig) {
  const auto topo = net::Topology::paper_tree(4);
  const FaultPlan plan;
  DetectorConfig cfg;
  cfg.heartbeat_period = 0;
  EXPECT_THROW(FailureDetector(topo, plan, cfg), std::invalid_argument);
  cfg = DetectorConfig{};
  cfg.phi_threshold = 0.5;
  EXPECT_THROW(FailureDetector(topo, plan, cfg), std::invalid_argument);
  cfg = DetectorConfig{};
  cfg.interval_ewma = 0.0;
  EXPECT_THROW(FailureDetector(topo, plan, cfg), std::invalid_argument);
  cfg.interval_ewma = 1.5;
  EXPECT_THROW(FailureDetector(topo, plan, cfg), std::invalid_argument);
  cfg = DetectorConfig{};
  cfg.warmup = -1;
  EXPECT_THROW(FailureDetector(topo, plan, cfg), std::invalid_argument);
}

TEST(Detector, CrashIsSuspectedWithinBoundedLatency) {
  const auto topo = net::Topology::paper_tree(4);
  const NodeId gw = topo.parent(topo.leaves().front());
  FaultPlan plan(5);
  const SimTime onset = 100 * kMillisecond;
  plan.crash(gw, onset, kForever);

  FailureDetector det(topo, plan, DetectorConfig{});
  det.advance(1 * kSecond);

  EXPECT_FALSE(det.view().node_up(gw));
  // Every neighbour of the dead gateway formed its suspicion within a few
  // heartbeat periods of the crash — never before it.
  SimTime first = -1;
  for (const SuspicionEvent& e : det.events()) {
    if (e.target == gw && e.suspected) {
      first = e.at;
      break;
    }
  }
  ASSERT_GE(first, onset);
  EXPECT_LE(first, onset + 5 * det.config().heartbeat_period);
  // A loss-free plan never manufactures evidence against a live node.
  EXPECT_EQ(det.false_suspicions(), 0u);
  EXPECT_GT(det.suspicions(), 0u);
  EXPECT_GT(det.probes_sent(), 0u);
  EXPECT_GT(det.probe_bytes(), 0u);
  EXPECT_GT(det.probes_delivered(), 0u);
}

TEST(Detector, TimelineIsAPureFunctionOfPlanAndConfig) {
  const auto topo = net::Topology::paper_tree(4);
  FaultPlan plan(9);
  const NodeId gw = topo.parent(topo.leaves().front());
  plan.crash(gw, 60 * kMillisecond, 500 * kMillisecond);
  for (const NodeId leaf : topo.leaves()) plan.loss(leaf, 0.3);

  FailureDetector one_shot(topo, plan, DetectorConfig{});
  one_shot.advance(2 * kSecond);
  FailureDetector stepped(topo, plan, DetectorConfig{});
  for (SimTime t = 0; t <= 2 * kSecond; t += 7 * kMillisecond) {
    stepped.advance(t);
  }
  stepped.advance(2 * kSecond);

  ASSERT_EQ(one_shot.events().size(), stepped.events().size());
  for (std::size_t i = 0; i < one_shot.events().size(); ++i) {
    EXPECT_EQ(key(one_shot.events()[i]), key(stepped.events()[i])) << i;
  }
  EXPECT_EQ(one_shot.probes_sent(), stepped.probes_sent());
  EXPECT_EQ(one_shot.probes_dropped(), stepped.probes_dropped());
  EXPECT_EQ(one_shot.suspicions(), stepped.suspicions());
  EXPECT_EQ(one_shot.refutations(), stepped.refutations());
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    EXPECT_EQ(one_shot.view().node_up(id), stepped.view().node_up(id));
    EXPECT_EQ(one_shot.view().link_up(id), stepped.view().link_up(id));
    EXPECT_DOUBLE_EQ(one_shot.view().link_loss(id),
                     stepped.view().link_loss(id));
  }
}

TEST(Detector, OutageReadsAsLinkFailureNotNodeDeath) {
  const auto topo = net::Topology::paper_tree(4);
  const NodeId gw = topo.parent(topo.leaves().front());
  FaultPlan plan;
  plan.outage(gw, 100 * kMillisecond, kForever);  // uplink down, gw alive

  FailureDetector det(topo, plan, DetectorConfig{});
  det.advance(1 * kSecond);

  // The silent uplink is suspected, but the gateway still answers its
  // children's probes — the evidence only supports a link failure.
  EXPECT_FALSE(det.view().link_up(gw));
  EXPECT_TRUE(det.view().node_up(gw));
  EXPECT_FALSE(det.view().reachable_up(topo, gw, topo.root()));
  EXPECT_FALSE(det.view().all_healthy());
}

TEST(Detector, LossyLinksCauseFalseSuspicionsAndRefutations) {
  const auto topo = net::Topology::paper_tree(4);
  FaultPlan plan(21);
  for (const NodeId leaf : topo.leaves()) plan.loss(leaf, 0.5);

  FailureDetector det(topo, plan, DetectorConfig{});
  det.advance(10 * kSecond);

  EXPECT_GT(det.probes_dropped(), 0u);
  // Runs of Bernoulli drops look exactly like silence: the detector must
  // suspect (that is the latency/accuracy trade-off), then take it back on
  // the next delivered probe.
  EXPECT_GT(det.false_suspicions(), 0u);
  EXPECT_GT(det.refutations(), 0u);
  EXPECT_EQ(det.suspicions(), det.false_suspicions());  // nobody actually died
  // The observed drop fraction feeds the per-link loss estimate.
  const NodeId leaf = topo.leaves().front();
  EXPECT_GT(det.view().link_loss(leaf), 0.25);
  EXPECT_LT(det.view().link_loss(leaf), 0.75);
  EXPECT_FALSE(det.view().all_healthy());
}

TEST(Detector, QueryEvidenceIsRefutedByDeliveredProbes) {
  const auto topo = net::Topology::paper_tree(4);
  const FaultPlan plan;  // fully healthy world
  const NodeId gw = topo.parent(topo.leaves().front());

  FailureDetector det(topo, plan, DetectorConfig{});
  det.advance(200 * kMillisecond);
  ASSERT_TRUE(det.view().node_up(gw));

  // A query-path caller reports the gateway dead: believed immediately.
  det.report_failure(topo.root(), gw, det.now());
  EXPECT_FALSE(det.view().node_up(gw));
  // The report is idempotent evidence, not a counter to spam.
  const std::uint64_t suspicions = det.suspicions();
  det.report_failure(topo.root(), gw, det.now());
  EXPECT_EQ(det.suspicions(), suspicions);

  // The next heartbeat round delivers a probe from the (alive) gateway and
  // the belief is withdrawn.
  det.advance(det.now() + 2 * det.config().heartbeat_period);
  EXPECT_TRUE(det.view().node_up(gw));
  EXPECT_GT(det.refutations(), 0u);
}

// ---------------------------------------------------------------- system

TEST(ChaosSystem, AllHealthyDetectorRunMatchesOracleBitExact) {
  const auto ds = chaos_dataset();
  auto oracle_cfg = chaos_cfg();
  oracle_cfg.detector.enabled = false;
  core::EdgeHdSystem oracle(ds, net::Topology::paper_tree(4), oracle_cfg);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), chaos_cfg());

  // Non-trivial plan that is benign for the whole exercised horizon.
  FaultPlan plan(3);
  plan.crash(0, 365ll * 24 * 3600 * net::kSecond, kForever).loss(1, 0.0);
  sys.set_fault_plan(plan, 0);
  ASSERT_NE(sys.detector(), nullptr);
  EXPECT_FALSE(sys.degraded_mode());

  const auto comm_a = oracle.train();
  const auto comm_b = sys.train();
  // Probe traffic is charged to the detector plane only — the per-phase
  // protocol totals are the golden bytes, to the byte.
  EXPECT_EQ(comm_a.bytes, comm_b.bytes);
  EXPECT_EQ(comm_a.messages, comm_b.messages);
  EXPECT_GT(sys.detector()->probes_sent(), 0u);
  EXPECT_EQ(sys.detector()->suspicions(), 0u);

  const auto root = oracle.topology().root();
  for (std::size_t c = 0; c < ds.num_classes; ++c) {
    EXPECT_EQ(oracle.classifier_at(root).class_accumulator(c),
              sys.classifier_at(root).class_accumulator(c));
  }
  const auto start = oracle.topology().leaves().front();
  for (std::size_t s = 0; s < 20; ++s) {
    const auto ra = oracle.infer_routed(ds.test_x[s], start);
    const auto rb = sys.infer_routed(ds.test_x[s], start);
    EXPECT_EQ(ra.label, rb.label);
    EXPECT_EQ(ra.node, rb.node);
    EXPECT_EQ(ra.bytes, rb.bytes);
    EXPECT_FALSE(rb.degraded);
  }
}

TEST(ChaosSystem, BeliefsOverrideStaleOracleMask) {
  const auto ds = chaos_dataset(200, 40);
  auto cfg = chaos_cfg();
  cfg.confidence_threshold = 1.1;  // always wants the root's verdict
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto& topo = sys.topology();
  const NodeId leaf = topo.leaves().front();
  const NodeId gw = topo.parent(leaf);

  // The mask snapshot (taken at t=50ms, inside the crash window) swears the
  // gateway is dead; the detector, advanced past the window's end, has seen
  // it come back. Routing follows the earned belief and escalates straight
  // through — under the retired oracle this query was stranded at the leaf.
  FaultPlan plan(13);
  plan.crash(gw, 0, 100 * kMillisecond);
  sys.set_fault_plan(plan, 50 * kMillisecond);
  ASSERT_FALSE(sys.health().node_up(gw));
  ASSERT_TRUE(sys.detector()->view().node_up(gw));
  EXPECT_GE(sys.detector()->rejoins(), 1u);

  const auto r = sys.infer_routed(ds.test_x[0], leaf);
  ASSERT_TRUE(r.served());
  EXPECT_EQ(r.node, topo.root());
}

TEST(ChaosSystem, RejoinConvergesToNeverFailedModel) {
  const auto ds = chaos_dataset();
  const auto topo = net::Topology::paper_tree(4);

  core::EdgeHdSystem ref(ds, topo, chaos_cfg());
  ref.train_initial();

  core::EdgeHdSystem sys(ds, topo, chaos_cfg());
  const NodeId gw = topo.parent(topo.leaves().front());
  FaultPlan plan(17);
  plan.crash(gw, 0, 1 * kSecond);  // dead for the whole merge schedule
  sys.set_fault_plan(plan, 0);
  ASSERT_FALSE(sys.detector()->view().node_up(gw));
  sys.train_initial();
  // The dead gateway's subtree could not contribute.
  EXPECT_FALSE(sys.stragglers().empty());

  // The gateway comes back; the detector observes the revival (a fresh
  // incarnation) and withdraws its suspicion.
  sys.advance_detector(2 * kSecond);
  ASSERT_TRUE(sys.detector()->view().node_up(gw));
  EXPECT_GE(sys.detector()->rejoins(), 1u);

  // The rejoin session rebuilds the gateway from its children's checkpoints
  // and lifts its state hop by hop to the root. Linearity makes this exact:
  // every classifier in the hierarchy ends bit-identical to the run where
  // the gateway never failed.
  const auto comm = sys.rejoin_node(gw);
  EXPECT_GT(comm.bytes, 0u);
  EXPECT_GT(comm.messages, 0u);
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    if (!ref.has_classifier(id)) continue;
    for (std::size_t c = 0; c < ds.num_classes; ++c) {
      EXPECT_EQ(ref.classifier_at(id).class_accumulator(c),
                sys.classifier_at(id).class_accumulator(c))
          << "node " << id << " class " << c;
    }
  }
  EXPECT_TRUE(sys.stragglers().empty());
}

TEST(ChaosSystem, AdvancingTheDetectorAdvancesTheWorld) {
  // The world (which origins may compute) and the beliefs (who is
  // reachable) must describe the same instant. With the world frozen at the
  // plan's t=0 snapshot, the revived gateway would be believed up by its
  // children, receive their residuals, and never open its own phase.
  const auto ds = chaos_dataset(200, 40);
  const auto topo = net::Topology::paper_tree(4);
  core::EdgeHdSystem sys(ds, topo, chaos_cfg());
  const NodeId gw = topo.parent(topo.leaves().front());
  FaultPlan plan(17);
  plan.crash(gw, 0, 1 * kSecond);
  sys.set_fault_plan(plan, 0);
  sys.train();

  sys.advance_detector(2 * kSecond);
  ASSERT_TRUE(sys.detector()->view().node_up(gw));
  EXPECT_TRUE(sys.health().node_up(gw));

  const auto leaves = topo.leaves();
  for (std::size_t s = 0; s < ds.test_size(); ++s) {
    sys.online_serve(ds.test_x[s], ds.test_y[s], leaves[s % leaves.size()]);
  }
  EXPECT_NO_THROW(sys.propagate_residuals());
}

TEST(ChaosSystem, RejoinRequiresTrainingAndRejectsTheRoot) {
  const auto ds = chaos_dataset(200, 40);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), chaos_cfg());
  EXPECT_THROW(sys.rejoin_node(0, 1), std::logic_error);
  sys.train_initial();
  EXPECT_THROW(sys.rejoin_node(sys.topology().root(), 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------- serving

TEST(ChaosServe, FailoverIsDeterministicAcrossWorkerCounts) {
  const auto ds = chaos_dataset();
  const auto topo = net::Topology::paper_tree(4);
  const NodeId gw = topo.parent(topo.leaves().front());

  FaultPlan plan(31);
  plan.crash(gw, 30 * kMillisecond, 90 * kMillisecond);

  serve::ServeConfig scfg;
  scfg.failover_retries = 20;  // generous budget so reroutes happen
  scfg.failover_backoff = 4 * kMillisecond;

  std::vector<serve::ServeReport> reports;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    auto cfg = chaos_cfg();
    cfg.confidence_threshold = 1.1;  // every query escalates
    cfg.num_threads = workers;
    core::EdgeHdSystem sys(ds, topo, cfg);
    sys.train();
    auto engine = sys.serve_start(scfg);
    engine->set_fault_plan(plan);
    reports.push_back(engine->run(serve::LoadSpec::poisson(
        topo.leaves(), /*rate_hz_per_origin=*/1000.0, /*num_queries=*/400,
        /*seed=*/9)));
  }

  const serve::ServeReport& base = reports.front();
  // The crash window sat in the middle of the arrival span, so the failover
  // machinery demonstrably ran: bounded retries, and queries that outlived
  // the window rerouted to the revived ancestor.
  EXPECT_GT(base.failover_retries, 0u);
  EXPECT_GT(base.failover_reroutes, 0u);
  EXPECT_EQ(base.submitted, 400u);
  for (const serve::ServeReport& r : reports) {
    EXPECT_EQ(r.reply_hash, base.reply_hash);
    EXPECT_EQ(r.served, base.served);
    EXPECT_EQ(r.unserved, base.unserved);
    EXPECT_EQ(r.served_degraded, base.served_degraded);
    EXPECT_EQ(r.escalation_hops, base.escalation_hops);
    EXPECT_EQ(r.failover_retries, base.failover_retries);
    EXPECT_EQ(r.failover_reroutes, base.failover_reroutes);
    EXPECT_EQ(r.failover_exhausted, base.failover_exhausted);
    EXPECT_EQ(r.makespan, base.makespan);
    EXPECT_EQ(r.slo_violations, base.slo_violations);
  }
}

TEST(ChaosServe, OracleModeReportsNoFailovers) {
  const auto ds = chaos_dataset(200, 40);
  const auto topo = net::Topology::paper_tree(4);
  auto cfg = chaos_cfg();
  cfg.detector.enabled = false;
  cfg.confidence_threshold = 1.1;
  core::EdgeHdSystem sys(ds, topo, cfg);
  sys.train();

  FaultPlan plan(31);
  plan.crash(topo.parent(topo.leaves().front()), 30 * kMillisecond,
             90 * kMillisecond);
  auto engine = sys.serve_start(serve::ServeConfig{});
  engine->set_fault_plan(plan);
  const auto report = engine->run(
      serve::LoadSpec::poisson(topo.leaves(), 1000.0, 200, 9));
  // Without a detector the failover path must never engage: the oracle
  // semantics (and their reports) stay exactly as before.
  EXPECT_EQ(report.failover_retries, 0u);
  EXPECT_EQ(report.failover_reroutes, 0u);
  EXPECT_EQ(report.failover_exhausted, 0u);
}

}  // namespace
