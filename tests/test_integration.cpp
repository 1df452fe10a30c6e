// End-to-end integration tests crossing module boundaries: the full EdgeHD
// pipeline against the centralized baselines, mirroring the evaluation's
// qualitative claims on small seeded workloads.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "baseline/hd_model.hpp"
#include "baseline/mlp.hpp"
#include "core/cost_model.hpp"
#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "hdc/random.hpp"
#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace edgehd;

TEST(Integration, HierarchicalCentralTracksCentralizedWithinMargin) {
  auto ds = data::make_synthetic("i1", 40, 3, {10, 10, 10, 10}, 1500, 400,
                                 61, 3.8F, 0.5F, 0.5F);
  data::zscore_normalize(ds);

  baseline::HdModelConfig cc;
  cc.dim = 2000;
  baseline::HdModel centralized(cc);
  centralized.fit(ds);

  core::SystemConfig cfg;
  cfg.total_dim = 2000;
  cfg.batch_size = 4;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();

  const double central_acc = centralized.test_accuracy(ds);
  const double hier_acc = sys.accuracy_at_node(sys.topology().root());
  EXPECT_GT(central_acc, 0.8);
  // Table II claim: the hierarchy's central node stays close to the
  // centralized model (paper: within ~0.5%; we allow a wider engineering
  // margin on the scaled-down synthetic data).
  EXPECT_GT(hier_acc, central_acc - 0.15);
}

TEST(Integration, OnlineLearningRecoversWeakOfflineModel) {
  auto ds = data::make_synthetic("i2", 24, 2, {12, 12}, 2000, 400, 63, 3.4F,
                                 0.55F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 1000;
  cfg.batch_size = 4;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(2), cfg);

  std::vector<std::size_t> tiny_offline(60);
  std::iota(tiny_offline.begin(), tiny_offline.end(), 0);
  sys.train(tiny_offline);
  const auto root = sys.topology().root();
  const double offline_acc = sys.accuracy_at_node(root);

  const auto leaves = sys.topology().leaves();
  for (std::size_t i = 60; i < ds.train_size(); ++i) {
    sys.online_serve(ds.train_x[i], ds.train_y[i], leaves[i % leaves.size()]);
    if ((i - 60) % 250 == 249) sys.propagate_residuals();
  }
  sys.propagate_residuals();
  const double online_acc = sys.accuracy_at_node(root);
  // Figure 9 claim: negative-only feedback keeps the model healthy; it must
  // not collapse the offline model and must stay clearly above chance.
  EXPECT_GT(online_acc, 0.7);
  EXPECT_GT(online_acc, offline_acc - 0.05);
}

TEST(Integration, ConfidenceRoutingSendsHardQueriesUp) {
  auto ds = data::make_synthetic("i3", 40, 4, {10, 10, 10, 10}, 1500, 400,
                                 65, 4.2F, 0.45F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 2000;
  cfg.batch_size = 4;
  cfg.confidence_threshold = 0.55;  // keep a healthy local-serving share
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();

  const auto start = sys.topology().leaves().front();
  std::size_t local_correct = 0, local_n = 0;
  std::size_t routed_correct = 0;
  for (std::size_t i = 0; i < ds.test_size(); ++i) {
    const auto r = sys.infer_routed(ds.test_x[i], start);
    if (r.level == 1) {
      ++local_n;
      if (r.label == ds.test_y[i]) ++local_correct;
    }
    if (r.label == ds.test_y[i]) ++routed_correct;
  }
  ASSERT_GT(local_n, 10u);
  const double local_acc =
      static_cast<double>(local_correct) / static_cast<double>(local_n);
  const double routed_acc =
      static_cast<double>(routed_correct) / static_cast<double>(ds.test_size());
  // Queries the end node keeps are ones it answers well; overall routed
  // accuracy must hold up.
  EXPECT_GT(local_acc, 0.7);
  EXPECT_GT(routed_acc, 0.65);
}

TEST(Integration, CostModelAndEngineAgreeOnCommunicationOrdering) {
  // Both the analytic model and the executable engine must agree that
  // EdgeHD training moves fewer bytes than shipping raw features.
  // Batch amortization needs a reasonable samples-to-batches ratio, as at
  // paper scale; tiny datasets with tiny batches would not compress.
  auto ds = data::make_synthetic("i4", 30, 2, {10, 10, 10}, 2000, 100, 67,
                                 3.4F, 0.6F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 1200;
  cfg.batch_size = 32;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(3), cfg);
  const auto comm = sys.train();
  const std::uint64_t raw_bytes =
      ds.train_size() * ds.num_features * sizeof(float);
  EXPECT_LT(comm.bytes, raw_bytes);
}

TEST(Integration, DnnDegradesFasterThanHolographicUnderLoss) {
  auto ds = data::make_synthetic("i5", 32, 2, {8, 8, 8, 8}, 1200, 300, 69,
                                 3.6F, 0.5F, 0.4F);
  data::zscore_normalize(ds);

  baseline::MlpConfig mc;
  mc.epochs = 15;
  baseline::Mlp mlp(mc);
  mlp.fit(ds);

  core::SystemConfig cfg;
  cfg.total_dim = 1600;
  cfg.batch_size = 4;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);
  sys.train();
  const auto root = sys.topology().root();

  // 60% loss: zero features for the DNN, zero dimensions for EdgeHD.
  hdc::Rng rng(70);
  std::size_t dnn_correct = 0;
  for (std::size_t i = 0; i < ds.test_size(); ++i) {
    auto x = ds.test_x[i];
    for (auto& v : x) {
      if (rng.bernoulli(0.6)) v = 0.0F;
    }
    if (mlp.predict(x) == ds.test_y[i]) ++dnn_correct;
  }
  const double dnn_drop =
      mlp.test_accuracy(ds) -
      static_cast<double>(dnn_correct) / static_cast<double>(ds.test_size());
  const double hd_drop = sys.accuracy_at_node_with_loss(root, 0.0, 71) -
                         sys.accuracy_at_node_with_loss(root, 0.6, 71);
  // Figure 12 claim.
  EXPECT_LT(hd_drop, dnn_drop + 0.03);
}

// ---- cross-layer observability invariants ---------------------------------
// Every registry hook sits directly beside the first-party accounting it
// shadows (NodeStats in the simulator, RoutedResult in the core), so the two
// must agree *exactly* — any divergence means a hook was moved, duplicated
// or dropped.

TEST(ObsInvariants, SimulatorStatsMatchRegistryCounters) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (-DEDGEHD_OBS=OFF)";
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();

  const auto topo = net::Topology::paper_tree(4);
  net::FaultPlan plan(21);
  const auto leaves = topo.leaves();
  for (const auto leaf : leaves) plan.loss(leaf, 0.35);
  plan.outage(leaves.front(), 0, 2 * net::kMillisecond);
  net::Simulator sim(topo, net::medium(net::MediumKind::kWifi80211n));
  sim.set_fault_plan(plan);
  for (const auto leaf : leaves) {
    for (int i = 0; i < 6; ++i) {
      sim.send_reliable(leaf, topo.parent(leaf), 700 + 50 * i);
    }
    sim.send(leaf, topo.parent(leaf), 400);
  }
  sim.run();

  net::NodeStats total;
  for (net::NodeId n = 0; n < topo.num_nodes(); ++n) {
    const auto& s = sim.stats(n);
    total.bytes_tx += s.bytes_tx;
    total.bytes_rx += s.bytes_rx;
    total.packets_tx += s.packets_tx;
    total.packets_rx += s.packets_rx;
    total.packets_dropped += s.packets_dropped;
    total.sends_suppressed += s.sends_suppressed;
    total.retransmissions += s.retransmissions;
    total.bytes_retransmitted += s.bytes_retransmitted;
  }
  ASSERT_GT(total.packets_dropped + total.retransmissions, 0u)
      << "fault plan produced no faults; the invariant would be vacuous";

  EXPECT_EQ(reg.counter_value("net.bytes_tx"), total.bytes_tx);
  EXPECT_EQ(reg.counter_value("net.bytes_rx"), total.bytes_rx);
  EXPECT_EQ(reg.counter_value("net.packets_tx"), total.packets_tx);
  EXPECT_EQ(reg.counter_value("net.packets_rx"), total.packets_rx);
  EXPECT_EQ(reg.counter_value("net.packets_dropped"), total.packets_dropped);
  EXPECT_EQ(reg.counter_value("net.sends_suppressed"),
            total.sends_suppressed);
  EXPECT_EQ(reg.counter_value("net.retransmissions"), total.retransmissions);
  EXPECT_EQ(reg.counter_value("net.bytes_retransmitted"),
            total.bytes_retransmitted);

  // Per-link byte counters must partition the aggregates exactly.
  std::uint64_t link_tx = 0, link_rx = 0, link_retx = 0;
  for (net::NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (n == topo.root()) continue;
    const std::string base = "net.link." + std::to_string(n) + ".";
    link_tx += reg.counter_value(base + "tx_bytes");
    link_rx += reg.counter_value(base + "rx_bytes");
    link_retx += reg.counter_value(base + "retx_bytes");
  }
  EXPECT_EQ(link_tx, total.bytes_tx);
  EXPECT_EQ(link_rx, total.bytes_rx);
  EXPECT_EQ(link_retx, total.bytes_retransmitted);
}

TEST(ObsInvariants, RoutedResultAccountingMatchesRegistry) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (-DEDGEHD_OBS=OFF)";
  }
  auto ds = data::make_synthetic("obs-inv", 30, 3, {10, 10, 10}, 800, 200,
                                 77, 3.8F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 1200;
  cfg.batch_size = 8;
  cfg.num_threads = 1;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(3), cfg);
  sys.train();
  // Lossy links make retry_bytes non-zero so the retry accounting is
  // exercised, not just trivially equal at zero.
  net::FaultPlan plan(31);
  for (const auto leaf : sys.topology().leaves()) plan.loss(leaf, 0.3);
  sys.set_fault_plan(plan);

  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  const auto start = sys.topology().leaves().front();
  std::uint64_t bytes = 0, retry_bytes = 0;
  std::size_t escalations = 0, served = 0;
  for (std::size_t i = 0; i < ds.test_size(); ++i) {
    const auto r = sys.infer_routed(ds.test_x[i], start);
    if (r.served()) ++served;
    bytes += r.bytes;
    retry_bytes += r.retry_bytes;
    if (r.served()) escalations += r.level - 1;
  }
  ASSERT_GT(retry_bytes, 0u)
      << "lossy links produced no retry bytes; the invariant is vacuous";

  EXPECT_EQ(reg.counter_value("core.routed.queries"), ds.test_size());
  EXPECT_EQ(reg.counter_value("core.routed.bytes"), bytes);
  EXPECT_EQ(reg.counter_value("core.routed.retry_bytes"), retry_bytes);
  EXPECT_EQ(reg.counter_value("core.routed.escalations"), escalations);

  // Per-node serve counters must partition the query count.
  std::uint64_t serves = 0;
  for (net::NodeId n = 0; n < sys.topology().num_nodes(); ++n) {
    serves += reg.counter_value("core.routed.serves.node" + std::to_string(n));
  }
  EXPECT_EQ(serves, served);
}

// ---- adaptive dimensionality across the hierarchy --------------------------

TEST(Integration, DimensionRegenerationIsIdenticalAcrossProviders) {
  // Counter-derived rows streamed per chunk (budget 0) and kept resident
  // (the default budget) must drive the *entire* pipeline — encode, train,
  // score, two rounds of regenerate, patch propagation and retrain — to
  // identical models at every node, in both aggregation modes. Accuracy and
  // mean confidence are continuous in the model state, so exact equality at
  // every node is a model-identity check, at 1/2/8 pool workers.
  for (const auto agg : {hier::AggregationMode::kConcatenation,
                         hier::AggregationMode::kHolographic}) {
    auto run = [agg](std::size_t budget_bytes, std::size_t workers) {
      auto ds = data::make_synthetic("i7", 30, 3, {10, 10, 10}, 600, 150, 81,
                                     3.6F, 0.5F, 0.5F);
      data::zscore_normalize(ds);
      core::SystemConfig cfg;
      cfg.total_dim = 900;
      cfg.batch_size = 4;
      cfg.projection_mode = hdc::ProjectionMode::kDeterministic;
      cfg.projection_budget_bytes = budget_bytes;
      cfg.num_threads = workers;
      cfg.aggregation = agg;
      core::EdgeHdSystem sys(ds, net::Topology::paper_tree(3), cfg);
      EXPECT_EQ(sys.leaf_projection_bytes() == 0, budget_bytes == 0);
      sys.train_initial();
      sys.retrain_batches();
      sys.regenerate_dimensions(40);
      sys.retrain_batches();
      sys.regenerate_dimensions(40);
      sys.retrain_batches();
      std::vector<double> state;
      for (net::NodeId n = 0; n < sys.topology().num_nodes(); ++n) {
        state.push_back(sys.accuracy_at_node(n));
        state.push_back(sys.mean_confidence_at_node(n));
      }
      return state;
    };
    const auto resident = run(hdc::kDefaultProjectionBudgetBytes, 1);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      EXPECT_EQ(run(0, workers), resident)
          << "aggregation mode " << static_cast<int>(agg)
          << ", workers=" << workers;
    }
  }
}

TEST(Integration, RegenerationShipsPatchesNotModelsAndKeepsAccuracy) {
  auto ds = data::make_synthetic("i8", 30, 3, {10, 10, 10}, 900, 250, 83,
                                 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 900;
  cfg.batch_size = 4;
  cfg.projection_mode = hdc::ProjectionMode::kDeterministic;
  cfg.aggregation = hier::AggregationMode::kConcatenation;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(3), cfg);
  const auto initial = sys.train_initial();
  sys.retrain_batches();
  const auto root = sys.topology().root();
  const double before = sys.accuracy_at_node(root);

  const std::size_t k = sys.node_dim(root) / 10;
  const auto patch = sys.regenerate_dimensions(k);
  sys.retrain_batches();
  const double after = sys.accuracy_at_node(root);

  // The regeneration session moved something, and far less than the initial
  // full-model exchange; replacing the worst-scored 10% then retraining must
  // not dent the model.
  EXPECT_GT(patch.messages, 0u);
  EXPECT_GT(patch.bytes, 0u);
  EXPECT_LT(patch.bytes, initial.bytes / 2);
  EXPECT_GT(after, before - 0.05);
}

TEST(Integration, ConfigDrivenRegenerationRunsInsideTrain) {
  // With regen_dims set, train() folds regenerate-retrain rounds in; the
  // result must stay a healthy model without any extra calls.
  auto ds = data::make_synthetic("i9", 24, 2, {12, 12}, 700, 200, 85, 3.4F,
                                 0.55F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 800;
  cfg.batch_size = 4;
  cfg.projection_mode = hdc::ProjectionMode::kDeterministic;
  cfg.regen_dims = 32;
  cfg.regen_rounds = 2;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(2), cfg);
  sys.train();
  EXPECT_GT(sys.accuracy_at_node(sys.topology().root()), 0.7);
}

TEST(Integration, DeterministicEndToEnd) {
  auto make = [] {
    auto ds = data::make_synthetic("i6", 20, 2, {10, 10}, 300, 80, 73, 3.4F,
                                   0.6F, 0.5F);
    data::zscore_normalize(ds);
    core::SystemConfig cfg;
    cfg.total_dim = 800;
    cfg.batch_size = 4;
    core::EdgeHdSystem sys(ds, net::Topology::paper_tree(2), cfg);
    sys.train();
    return sys.accuracy_at_node(sys.topology().root());
  };
  EXPECT_EQ(make(), make());
}

}  // namespace
