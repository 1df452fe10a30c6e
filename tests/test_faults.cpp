// Fault injection, reliable transport and graceful degradation
// (src/net/fault.*, Simulator drop semantics, EdgeHdSystem health masks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "net/fault.hpp"
#include "net/medium.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"

namespace {

using namespace edgehd;
using net::FaultPlan;
using net::HealthMask;
using net::kForever;
using net::kMillisecond;
using net::NodeId;
using net::Simulator;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ValidatesArguments) {
  FaultPlan plan(1);
  EXPECT_THROW(plan.crash(net::kNoNode), std::invalid_argument);
  EXPECT_THROW(plan.crash(0, -1, 5), std::invalid_argument);
  EXPECT_THROW(plan.crash(0, 10, 5), std::invalid_argument);
  EXPECT_THROW(plan.outage(0, 10, 5), std::invalid_argument);
  EXPECT_THROW(plan.loss(0, -0.1), std::invalid_argument);
  EXPECT_THROW(plan.loss(0, 1.5), std::invalid_argument);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, WindowsAreHalfOpen) {
  FaultPlan plan;
  plan.crash(3, 100, 200).outage(5, 50, kForever);
  EXPECT_TRUE(plan.node_up(3, 99));
  EXPECT_FALSE(plan.node_up(3, 100));
  EXPECT_FALSE(plan.node_up(3, 199));
  EXPECT_TRUE(plan.node_up(3, 200));
  EXPECT_TRUE(plan.node_up(4, 150));  // other nodes unaffected
  EXPECT_TRUE(plan.link_up(5, 49));
  EXPECT_FALSE(plan.link_up(5, 1'000'000'000));
}

TEST(FaultPlan, LossEntriesComposeIndependently) {
  FaultPlan plan;
  plan.loss(2, 0.5).loss(2, 0.5);
  EXPECT_NEAR(plan.loss_probability(2), 0.75, 1e-12);
  EXPECT_EQ(plan.loss_probability(3), 0.0);
}

TEST(FaultPlan, DropDrawsAreAStatelessFunctionOfSeedLinkAttempt) {
  FaultPlan a(42), b(42), c(43);
  a.loss(1, 0.5);
  b.loss(1, 0.5);
  c.loss(1, 0.5);
  std::size_t diverged = 0;
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    EXPECT_EQ(a.drop(1, attempt), b.drop(1, attempt));
    if (a.drop(1, attempt) != c.drop(1, attempt)) ++diverged;
  }
  EXPECT_GT(diverged, 0u);  // a different seed gives a different stream
  EXPECT_FALSE(a.drop(2, 0));  // loss-free link never drops
}

TEST(FaultPlan, ExpectedAttemptsMatchesTheGeometricSum) {
  EXPECT_DOUBLE_EQ(net::expected_attempts(0.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(net::expected_attempts(1.0, 5), 6.0);
  EXPECT_NEAR(net::expected_attempts(0.5, 1), 1.5, 1e-12);
  EXPECT_NEAR(net::expected_attempts(0.5, 2), 1.75, 1e-12);
}

// ---------------------------------------------------------------- HealthMask

TEST(HealthMask, SnapshotEvaluatesThePlanAtOneInstant) {
  FaultPlan plan;
  plan.crash(1, 0, 100).outage(2, 50, 150).loss(3, 0.25);
  const auto at0 = HealthMask::snapshot(plan, 5, 0);
  EXPECT_FALSE(at0.node_up(1));
  EXPECT_TRUE(at0.link_up(2));
  EXPECT_DOUBLE_EQ(at0.link_loss(3), 0.25);
  EXPECT_FALSE(at0.all_healthy());
  const auto at200 = HealthMask::snapshot(plan, 5, 200);
  EXPECT_TRUE(at200.node_up(1));
  EXPECT_TRUE(at200.link_up(2));
  EXPECT_FALSE(at200.all_healthy());  // loss is not window-scoped
}

TEST(HealthMask, ReachabilityWalksTheRootPath) {
  const auto topo = net::Topology::paper_tree(4);
  const NodeId leaf = topo.leaves().front();
  const NodeId gw = topo.parent(leaf);
  HealthMask mask(topo.num_nodes());
  EXPECT_TRUE(mask.reachable_up(topo, leaf, topo.root()));
  mask.set_node_up(gw, false);
  EXPECT_FALSE(mask.reachable_up(topo, leaf, topo.root()));
  EXPECT_TRUE(mask.reachable_up(topo, leaf, leaf));
  mask.set_node_up(gw, true).set_link_up(gw, false);
  EXPECT_FALSE(mask.reachable_up(topo, leaf, topo.root()));
  EXPECT_TRUE(mask.reachable_up(topo, leaf, gw));
}

// ---------------------------------------------------------------- Simulator

/// Runs a fixed traffic pattern (all leaves to the root, two sizes) and
/// returns a trace of delivery tags in completion order.
std::vector<std::string> run_traffic(Simulator& sim) {
  std::vector<std::string> trace;
  const auto& topo = sim.topology();
  for (const NodeId leaf : topo.leaves()) {
    sim.send_to_root(leaf, 4000 + 13 * leaf,
                     [&trace, leaf] { trace.push_back("big" + std::to_string(leaf)); });
    sim.send(leaf, topo.parent(leaf), 600,
             [&trace, leaf] { trace.push_back("small" + std::to_string(leaf)); });
  }
  sim.run();
  return trace;
}

TEST(SimulatorFaults, EmptyAndAllHealthyPlansAreBitIdenticalToNoPlan) {
  const auto topo = net::Topology::paper_tree(4);
  const auto m = net::medium(net::MediumKind::kWifi80211ac);

  Simulator plain(topo, m);
  const auto trace_plain = run_traffic(plain);

  Simulator with_empty(topo, m);
  with_empty.set_fault_plan(FaultPlan(7));
  const auto trace_empty = run_traffic(with_empty);

  // Non-empty but harmless at every relevant instant: zero loss plus a crash
  // window that opens long after the run completes.
  Simulator with_benign(topo, m);
  FaultPlan benign(7);
  benign.loss(topo.leaves().front(), 0.0)
      .crash(topo.root(), 365ll * 24 * 3600 * net::kSecond, kForever);
  with_benign.set_fault_plan(benign);
  const auto trace_benign = run_traffic(with_benign);

  EXPECT_EQ(trace_plain, trace_empty);
  EXPECT_EQ(trace_plain, trace_benign);
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    EXPECT_EQ(plain.stats(id).bytes_tx, with_benign.stats(id).bytes_tx);
    EXPECT_EQ(plain.stats(id).bytes_rx, with_benign.stats(id).bytes_rx);
    EXPECT_EQ(plain.stats(id).tx_time, with_benign.stats(id).tx_time);
  }
  EXPECT_EQ(plain.now(), with_benign.now());
  EXPECT_EQ(with_benign.total_drops(), 0u);
}

TEST(SimulatorFaults, SameSeedAndPlanReproduceTheRunExactly) {
  const auto topo = net::Topology::paper_tree(6);
  FaultPlan plan(99);
  for (const NodeId leaf : topo.leaves()) plan.loss(leaf, 0.3);

  auto lossy_run = [&](std::vector<std::string>& trace) {
    Simulator sim(topo, net::medium(net::MediumKind::kWifi80211n));
    sim.set_fault_plan(plan);
    for (const NodeId leaf : topo.leaves()) {
      for (int i = 0; i < 4; ++i) {
        sim.send_reliable(leaf, topo.parent(leaf), 1000 + i,
                          [&trace, leaf, i](const net::DeliveryOutcome& o) {
                            trace.push_back(std::to_string(leaf) + ":" +
                                            std::to_string(i) + ":" +
                                            (o.delivered ? "ok" : "lost") + ":" +
                                            std::to_string(o.attempts));
                          });
      }
    }
    sim.run();
    return std::tuple{sim.now(), sim.total_bytes_transferred(),
                      sim.total_retransmissions(), sim.total_drops()};
  };

  std::vector<std::string> trace_a, trace_b;
  const auto a = lossy_run(trace_a);
  const auto b = lossy_run(trace_b);
  EXPECT_EQ(trace_a, trace_b);  // identical delivery order and outcomes
  EXPECT_EQ(a, b);              // identical makespan, bytes, retries, drops
  EXPECT_GT(std::get<2>(a), 0u);  // the plan actually bit
}

TEST(SimulatorFaults, CertainLossMakesSendSilentlyDrop) {
  const auto topo = net::Topology::star(2);
  Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  const NodeId leaf = topo.leaves().front();
  FaultPlan plan(1);
  plan.loss(leaf, 1.0);
  sim.set_fault_plan(plan);
  bool delivered = false;
  sim.send(leaf, topo.root(), 500, [&] { delivered = true; });
  sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(sim.stats(leaf).packets_dropped, 1u);
  EXPECT_EQ(sim.stats(leaf).bytes_tx, 500u);       // it did hit the air
  EXPECT_EQ(sim.stats(topo.root()).bytes_rx, 0u);  // but never landed
}

TEST(SimulatorFaults, SendReliableByteAccountingMatchesRetransmissions) {
  const auto topo = net::Topology::star(2);
  const NodeId leaf = topo.leaves().front();
  FaultPlan plan(5);
  plan.loss(leaf, 0.4);
  Simulator sim(topo, net::medium(net::MediumKind::kWifi80211ac));
  sim.set_fault_plan(plan);

  const std::uint64_t payload = 1200;
  const int count = 32;
  std::uint64_t attempts_total = 0;
  int completed = 0;
  for (int i = 0; i < count; ++i) {
    sim.send_reliable(leaf, topo.root(), payload,
                      [&](const net::DeliveryOutcome& o) {
                        ++completed;
                        attempts_total += o.attempts;
                        // Nothing was suppressed; an attempt still queued on
                        // the busy link at completion has not been charged
                        // yet, so the snapshot can only undershoot.
                        EXPECT_LE(o.bytes_on_wire, payload * o.attempts);
                      });
  }
  sim.run();
  EXPECT_EQ(completed, count);
  const auto& st = sim.stats(leaf);
  // bytes == payload × (1 + retransmissions), summed over all transfers.
  EXPECT_EQ(st.bytes_tx, payload * (count + st.retransmissions));
  EXPECT_EQ(st.bytes_retransmitted, payload * st.retransmissions);
  EXPECT_EQ(attempts_total, count + st.retransmissions);
  EXPECT_GT(st.retransmissions, 0u);
}

TEST(SimulatorFaults, SendReliableGivesUpAfterTheRetryCap) {
  const auto topo = net::Topology::star(2);
  const NodeId leaf = topo.leaves().front();
  FaultPlan plan(3);
  plan.loss(leaf, 1.0);
  Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  sim.set_fault_plan(plan);
  net::ReliableConfig cfg;
  cfg.max_retries = 3;
  bool reported = false;
  sim.send_reliable(leaf, topo.root(), 800,
                    [&](const net::DeliveryOutcome& o) {
                      reported = true;
                      EXPECT_FALSE(o.delivered);
                      EXPECT_EQ(o.attempts, 4u);  // 1 + max_retries
                      EXPECT_EQ(o.bytes_on_wire, 4u * 800u);
                    },
                    cfg);
  sim.run();
  EXPECT_TRUE(reported);
  EXPECT_EQ(sim.stats(leaf).retransmissions, 3u);
}

TEST(SimulatorFaults, CrashedSenderSuppressesWithoutSpendingBytes) {
  const auto topo = net::Topology::star(2);
  const NodeId leaf = topo.leaves().front();
  FaultPlan plan;
  plan.crash(leaf, 0, kForever);
  Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  sim.set_fault_plan(plan);
  net::ReliableConfig cfg;
  cfg.max_retries = 2;
  bool reported = false;
  sim.send_reliable(leaf, topo.root(), 700,
                    [&](const net::DeliveryOutcome& o) {
                      reported = true;
                      EXPECT_FALSE(o.delivered);
                      EXPECT_EQ(o.bytes_on_wire, 0u);
                    },
                    cfg);
  sim.run();
  EXPECT_TRUE(reported);
  EXPECT_EQ(sim.stats(leaf).bytes_tx, 0u);
  EXPECT_EQ(sim.stats(leaf).sends_suppressed, 3u);  // every attempt
  EXPECT_EQ(sim.stats(leaf).retransmissions, 0u);   // nothing hit the air
}

TEST(SimulatorFaults, NodeRecoveryRestoresDelivery) {
  const auto topo = net::Topology::star(2);
  const NodeId leaf = topo.leaves().front();
  FaultPlan plan;
  plan.crash(topo.root(), 0, 100 * kMillisecond);
  Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  sim.set_fault_plan(plan);
  int delivered = 0;
  // First packet lands while the receiver is down; the second goes out after
  // the recovery instant.
  sim.send(leaf, topo.root(), 100, [&] { ++delivered; });
  sim.schedule(200 * kMillisecond, [&] {
    sim.send(leaf, topo.root(), 100, [&] { ++delivered; });
  });
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sim.stats(leaf).packets_dropped, 1u);
  EXPECT_EQ(sim.stats(topo.root()).packets_rx, 1u);
}

TEST(SimulatorFaults, OutageBlocksBothDirections) {
  const auto topo = net::Topology::star(2);
  const NodeId leaf = topo.leaves().front();
  FaultPlan plan;
  plan.outage(leaf, 0, kForever);
  Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  sim.set_fault_plan(plan);
  bool up = false, down = false;
  sim.send(leaf, topo.root(), 100, [&] { up = true; });
  sim.send(topo.root(), leaf, 100, [&] { down = true; });
  sim.run();
  EXPECT_FALSE(up);
  EXPECT_FALSE(down);
  EXPECT_EQ(sim.total_drops(), 2u);
}

TEST(SimulatorFaults, RejectsMalformedReliableConfig) {
  const auto topo = net::Topology::star(2);
  Simulator sim(topo, net::medium(net::MediumKind::kWired1G));
  net::ReliableConfig bad;
  bad.backoff_factor = 0.5;
  EXPECT_THROW(sim.send_reliable(topo.leaves().front(), topo.root(), 1, {}, bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------- EdgeHD

data::Dataset fault_dataset(std::size_t train = 500, std::size_t test = 150) {
  auto ds = data::make_synthetic("hier", 40, 3, {10, 10, 10, 10}, train, test,
                                 51, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  return ds;
}

core::SystemConfig fault_cfg() {
  core::SystemConfig cfg;
  cfg.total_dim = 1000;
  cfg.batch_size = 4;
  return cfg;
}

double accum_cosine(const hdc::AccumHV& a, const hdc::AccumHV& b) {
  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  return (na == 0 || nb == 0) ? 0.0 : dot / std::sqrt(na * nb);
}

TEST(EdgeHdFaults, AllHealthyPlanIsBitIdenticalToNoPlan) {
  const auto ds = fault_dataset();
  core::EdgeHdSystem plain(ds, net::Topology::paper_tree(4), fault_cfg());
  core::EdgeHdSystem masked(ds, net::Topology::paper_tree(4), fault_cfg());
  // Non-trivial plan whose snapshot at t=0 is all-healthy.
  FaultPlan plan(11);
  plan.crash(0, 1000, 2000).loss(1, 0.0);
  masked.set_fault_plan(plan, 0);
  EXPECT_FALSE(masked.degraded_mode());

  const auto comm_a = plain.train();
  const auto comm_b = masked.train();
  EXPECT_EQ(comm_a.bytes, comm_b.bytes);
  EXPECT_EQ(comm_a.messages, comm_b.messages);
  EXPECT_TRUE(masked.stragglers().empty());

  const auto root = plain.topology().root();
  for (std::size_t c = 0; c < ds.num_classes; ++c) {
    EXPECT_EQ(plain.classifier_at(root).class_accumulator(c),
              masked.classifier_at(root).class_accumulator(c));
  }
  const auto start = plain.topology().leaves().front();
  for (std::size_t s = 0; s < 20; ++s) {
    const auto ra = plain.infer_routed(ds.test_x[s], start);
    const auto rb = masked.infer_routed(ds.test_x[s], start);
    EXPECT_EQ(ra.label, rb.label);
    EXPECT_EQ(ra.node, rb.node);
    EXPECT_EQ(ra.bytes, rb.bytes);
    EXPECT_FALSE(rb.degraded);
    EXPECT_EQ(rb.retry_bytes, 0u);
  }
}

TEST(EdgeHdFaults, OrphanedLeafServesLocallyAndFlagsDegraded) {
  const auto ds = fault_dataset();
  auto cfg = fault_cfg();
  cfg.confidence_threshold = 1.1;  // always wants to escalate
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto leaf = sys.topology().leaves().front();

  FaultPlan plan;
  plan.outage(leaf);  // the leaf's uplink is down
  sys.set_fault_plan(plan);
  ASSERT_TRUE(sys.degraded_mode());

  std::size_t served = 0, degraded = 0, agree = 0;
  for (std::size_t s = 0; s < ds.test_size(); ++s) {
    const auto r = sys.infer_routed(ds.test_x[s], leaf);
    if (r.served()) ++served;
    if (r.degraded) ++degraded;
    EXPECT_EQ(r.node, leaf);  // stranded at the origin
    EXPECT_EQ(r.level, 1u);
    EXPECT_EQ(r.bytes, 0u);  // nothing crossed the network
    EXPECT_LT(r.label, ds.num_classes);
    // The local prediction is exactly what the leaf's model says.
    const auto hv = sys.encode_all(ds.test_x[s])[leaf];
    const auto sims = sys.classifier_at(leaf).similarities(hv);
    const auto best = static_cast<std::size_t>(
        std::max_element(sims.begin(), sims.end()) - sims.begin());
    if (r.label == best) ++agree;
  }
  EXPECT_EQ(served, ds.test_size());    // 100% availability, degraded
  EXPECT_EQ(degraded, ds.test_size());
  EXPECT_EQ(agree, ds.test_size());
}

TEST(EdgeHdFaults, CrashedGatewaySubtreeStaysFullyServed) {
  const auto ds = fault_dataset();
  auto cfg = fault_cfg();
  cfg.confidence_threshold = 1.1;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto& topo = sys.topology();
  const auto gw = topo.parent(topo.leaves().front());
  ASSERT_NE(gw, topo.root());

  FaultPlan plan;
  plan.crash(gw);
  sys.set_fault_plan(plan);

  for (const auto leaf : topo.leaves()) {
    if (topo.parent(leaf) != gw) continue;
    for (std::size_t s = 0; s < ds.test_size(); ++s) {
      const auto r = sys.infer_routed(ds.test_x[s], leaf);
      ASSERT_TRUE(r.served());
      EXPECT_TRUE(r.degraded);
      EXPECT_EQ(r.node, leaf);
    }
  }
  // Queries rooted outside the dead subtree escalate past it and are served
  // at the root on a thinner aggregate.
  const auto far_leaf = topo.leaves().back();
  ASSERT_NE(topo.parent(far_leaf), gw);
  const auto r = sys.infer_routed(ds.test_x[0], far_leaf);
  EXPECT_TRUE(r.served());
  EXPECT_EQ(r.node, topo.root());
  EXPECT_TRUE(r.degraded);  // the root aggregate is missing gw's subtree
}

TEST(EdgeHdFaults, CrashedStartNodeIsUnserved) {
  const auto ds = fault_dataset(200, 40);
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), fault_cfg());
  sys.train();
  const auto leaf = sys.topology().leaves().front();
  FaultPlan plan;
  plan.crash(leaf);
  sys.set_fault_plan(plan);
  const auto r = sys.infer_routed(ds.test_x[0], leaf);
  EXPECT_FALSE(r.served());
  EXPECT_TRUE(r.degraded);
}

TEST(EdgeHdFaults, FailFastPolicyReportsUnservedInsteadOfDegraded) {
  const auto ds = fault_dataset(200, 40);
  auto cfg = fault_cfg();
  cfg.confidence_threshold = 1.1;
  cfg.failover.serve_degraded = false;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto leaf = sys.topology().leaves().front();
  FaultPlan plan;
  plan.outage(leaf);
  sys.set_fault_plan(plan);
  const auto r = sys.infer_routed(ds.test_x[0], leaf);
  EXPECT_FALSE(r.served());
  EXPECT_TRUE(r.degraded);
}

TEST(EdgeHdFaults, LossyLinksChargeExpectedRetryBytes) {
  const auto ds = fault_dataset(200, 40);
  auto cfg = fault_cfg();
  cfg.confidence_threshold = 1.1;  // escalate to the root
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto leaf = sys.topology().leaves().front();

  FaultPlan plan;
  plan.loss(leaf, 0.5);
  sys.set_fault_plan(plan);
  const auto r = sys.infer_routed(ds.test_x[0], leaf);
  ASSERT_TRUE(r.served());
  EXPECT_EQ(r.node, sys.topology().root());
  // Loss does not cut connectivity (reliable transport wins eventually), so
  // the answer itself is not degraded — but it costs retries: about
  // expected_attempts - 1 extra copies of the lossy hop.
  EXPECT_FALSE(r.degraded);
  EXPECT_GT(r.retry_bytes, 0u);
  EXPECT_LT(r.retry_bytes, r.bytes);  // one lossy hop out of the whole tree
}

TEST(EdgeHdFaults, TrainingToleratesMissingChildAndReintegratesOnRecovery) {
  const auto ds = fault_dataset();
  const auto topo = net::Topology::paper_tree(4);
  core::EdgeHdSystem healthy(ds, topo, fault_cfg());
  const auto healthy_comm = healthy.train_initial();

  core::EdgeHdSystem faulty(ds, topo, fault_cfg());
  const auto leaf = faulty.topology().leaves().front();
  FaultPlan plan;
  plan.outage(leaf);
  faulty.set_fault_plan(plan);
  const auto degraded_comm = faulty.train_initial();

  // The cut child's model never crossed the wire, and it is on record.
  EXPECT_LT(degraded_comm.bytes, healthy_comm.bytes);
  ASSERT_EQ(faulty.stragglers().size(), 1u);
  EXPECT_EQ(faulty.stragglers().front(), leaf);

  // While cut, reintegration is a no-op (the path is still down).
  EXPECT_EQ(faulty.reintegrate_stragglers().bytes, 0u);
  ASSERT_EQ(faulty.stragglers().size(), 1u);

  // Recovery: the pending contribution ships and lands at every ancestor.
  faulty.clear_health();
  const auto reint = faulty.reintegrate_stragglers();
  EXPECT_GT(reint.bytes, 0u);
  EXPECT_TRUE(faulty.stragglers().empty());
  // One frame of k class hypervectors per hop, two hops (leaf -> gateway
  // -> root).
  EXPECT_EQ(reint.messages, 2u);

  // The lifted deltas reconstruct the healthy models up to the projection's
  // integer rescale truncation — compare by direction, not bit-for-bit.
  const auto root = topo.root();
  const auto gw = topo.parent(leaf);
  for (std::size_t c = 0; c < ds.num_classes; ++c) {
    EXPECT_GT(accum_cosine(healthy.classifier_at(gw).class_accumulator(c),
                           faulty.classifier_at(gw).class_accumulator(c)),
              0.98);
    EXPECT_GT(accum_cosine(healthy.classifier_at(root).class_accumulator(c),
                           faulty.classifier_at(root).class_accumulator(c)),
              0.98);
  }
}

TEST(EdgeHdFaults, RetrainUnderFaultsKeepsWorkingModels) {
  const auto ds = fault_dataset();
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), fault_cfg());
  const auto leaf = sys.topology().leaves().front();
  FaultPlan plan;
  plan.outage(leaf);
  sys.set_fault_plan(plan);
  sys.train();  // initial + retrain, both with the child missing
  // The straggler is on record once (train_initial and retrain dedupe).
  ASSERT_EQ(sys.stragglers().size(), 1u);
  EXPECT_EQ(sys.stragglers().front(), leaf);
  // The hierarchy still learns from the three connected leaves.
  EXPECT_GT(sys.accuracy_at_node(sys.topology().root()), 0.55);
}

TEST(EdgeHdFaults, ResidualPropagationHoldsBackAndShipsOnRecovery) {
  const auto ds = fault_dataset();
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), fault_cfg());
  sys.train();
  const auto& topo = sys.topology();
  const auto leaf = topo.leaves().front();

  // Generate feedback traffic at the orphaned leaf.
  FaultPlan plan;
  plan.outage(leaf);
  sys.set_fault_plan(plan);
  for (std::size_t s = 0; s < 60; ++s) {
    sys.online_serve(ds.train_x[s], ds.train_y[s], leaf);
  }
  const auto cut = sys.propagate_residuals();
  EXPECT_EQ(cut.bytes, 0u);  // nothing from the leaf crossed the dead link

  // After recovery the held-back bundle ships with the next propagation.
  sys.clear_health();
  const auto recovered = sys.propagate_residuals();
  EXPECT_GE(recovered.bytes, 0u);
}

TEST(EdgeHdFaults, SiblingRejoinKeepsReintegratedContributions) {
  // Leaf 0's uplink is out during initial training, so its contribution is
  // reintegrated afterwards. A later rejoin of the sibling gateway rebuilds
  // the root from every gateway's checkpoint; the checkpoint of the gateway
  // above leaf 0 must include the reintegrated delta whether or not that
  // gateway hosts a classifier (classify_min_level 2 vs 3).
  const auto ds = fault_dataset();
  const auto topo = net::Topology::paper_tree(4);
  const NodeId root = topo.root();
  for (const std::size_t min_level : {2u, 3u}) {
    auto cfg = fault_cfg();
    cfg.leaf_encoder = hdc::EncoderKind::kLinearLevel;
    cfg.classify_min_level = min_level;
    core::EdgeHdSystem healthy(ds, topo, cfg);
    healthy.train_initial();

    core::EdgeHdSystem faulty(ds, topo, cfg);
    FaultPlan plan;
    plan.outage(0);
    faulty.set_fault_plan(plan);
    faulty.train_initial();
    faulty.clear_health();
    const auto root_l1 = [&] {
      std::int64_t l1 = 0;
      for (std::size_t c = 0; c < ds.num_classes; ++c) {
        const auto& want = healthy.classifier_at(root).class_accumulator(c);
        const auto& got = faulty.classifier_at(root).class_accumulator(c);
        for (std::size_t d = 0; d < want.size(); ++d) {
          l1 += std::abs(std::int64_t{want[d]} - got[d]);
        }
      }
      return l1;
    };
    ASSERT_GT(faulty.reintegrate_stragglers().bytes, 0u);
    const std::int64_t reintegrated = root_l1();
    ASSERT_GT(faulty.rejoin_node(5, 1).bytes, 0u);
    EXPECT_LE(root_l1(), reintegrated) << "classify_min_level " << min_level;
  }
}

TEST(EdgeHdFaults, DegradedInferenceIsIdenticalAcrossWorkerCounts) {
  const auto ds = fault_dataset(300, 60);
  auto cfg1 = fault_cfg();
  cfg1.num_threads = 1;
  auto cfg4 = fault_cfg();
  cfg4.num_threads = 4;
  core::EdgeHdSystem one(ds, net::Topology::paper_tree(4), cfg1);
  core::EdgeHdSystem four(ds, net::Topology::paper_tree(4), cfg4);
  one.train();
  four.train();

  FaultPlan plan;
  plan.crash(one.topology().parent(one.topology().leaves().front()))
      .loss(one.topology().leaves().back(), 0.3);
  one.set_fault_plan(plan);
  four.set_fault_plan(plan);

  const auto start = one.topology().leaves().front();
  const auto ra = one.infer_routed_batch(ds.test_x, start);
  const auto rb = four.infer_routed_batch(ds.test_x, start);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].label, rb[i].label);
    EXPECT_EQ(ra[i].node, rb[i].node);
    EXPECT_EQ(ra[i].degraded, rb[i].degraded);
    EXPECT_EQ(ra[i].bytes, rb[i].bytes);
    EXPECT_EQ(ra[i].retry_bytes, rb[i].retry_bytes);
  }
}

}  // namespace
