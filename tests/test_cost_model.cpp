// Unit tests for the deployment cost model (src/core/cost_model.*).
#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "data/dataset.hpp"
#include "net/medium.hpp"
#include "net/topology.hpp"

namespace {

using namespace edgehd;
using core::CostModel;
using core::Deployment;
using core::WorkloadShape;

WorkloadShape pamap_shape() {
  return WorkloadShape::from_spec(data::spec(data::DatasetId::kPamap2));
}

TEST(CostModel, ShapeFromSpecMatchesTableOne) {
  const auto s = pamap_shape();
  EXPECT_EQ(s.num_features, 75u);
  EXPECT_EQ(s.num_classes, 5u);
  EXPECT_EQ(s.train_size, 611142u);
  EXPECT_EQ(s.partitions.size(), 3u);
  EXPECT_EQ(s.partitions[0] + s.partitions[1] + s.partitions[2], 75u);
  // Non-hierarchical specs collapse to one partition.
  const auto m = WorkloadShape::from_spec(data::spec(data::DatasetId::kMnist));
  EXPECT_EQ(m.partitions.size(), 1u);
}

TEST(CostModel, ValidatesShape) {
  WorkloadShape bad = pamap_shape();
  bad.partitions = {10, 10};  // does not sum to 75
  EXPECT_THROW(CostModel{bad}, std::invalid_argument);
}

TEST(CostModel, BatchCountFollowsTheProtocol) {
  const CostModel model(pamap_shape());
  // 5 classes, ~122229 samples each, B = 75 -> 1630 batches per class.
  EXPECT_EQ(model.num_batches(), 5u * 1630);
}

TEST(CostModel, OperationCountsAreInternallyConsistent) {
  const CostModel model(pamap_shape());
  // Sparse encoding is cheaper than dense.
  EXPECT_LT(model.hd_central_train_macs(true),
            model.hd_central_train_macs(false));
  EXPECT_LT(model.hd_central_infer_macs_per_query(true),
            model.hd_central_infer_macs_per_query(false));
  // DNN training is epoch-scaled forward+backward work.
  EXPECT_GT(model.dnn_train_macs(),
            model.dnn_infer_macs_per_query() * model.shape().train_size);
}

TEST(CostModel, AllDeploymentsProducePositiveCosts) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  for (const auto dep : {Deployment::kDnnGpu, Deployment::kHdGpu,
                         Deployment::kHdFpga, Deployment::kEdgeHd}) {
    const auto costs = model.evaluate(dep, topo, medium);
    EXPECT_GT(costs.train.time, 0);
    EXPECT_GT(costs.train.energy_j, 0.0);
    EXPECT_GT(costs.train.bytes, 0u);
    EXPECT_GT(costs.infer.time, 0);
  }
}

TEST(CostModel, EdgeHdMovesFewerBytesThanCentralized) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  const auto central = model.evaluate(Deployment::kHdFpga, topo, medium);
  const auto edge = model.evaluate(Deployment::kEdgeHd, topo, medium);
  EXPECT_LT(edge.train.bytes, central.train.bytes);
  EXPECT_LT(edge.infer.bytes, central.infer.bytes);
}

TEST(CostModel, LowerBandwidthSlowsCentralizedTraining) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto fast = model.evaluate(Deployment::kHdFpga, topo,
                                   net::medium(net::MediumKind::kWired1G));
  const auto slow = model.evaluate(Deployment::kHdFpga, topo,
                                   net::medium(net::MediumKind::kBluetooth4));
  EXPECT_GT(slow.train.time, fast.train.time);
}

TEST(CostModel, DnnIsSlowestToTrainOnGpuClassPlatforms) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  const auto dnn = model.evaluate(Deployment::kDnnGpu, topo, medium);
  const auto hd = model.evaluate(Deployment::kHdGpu, topo, medium);
  EXPECT_GT(dnn.train.time, hd.train.time);
  EXPECT_GT(dnn.train.energy_j, hd.train.energy_j);
}

TEST(CostModel, InferenceLevelTradesLatencyForCoverage) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWifi80211n);
  const auto l1 = model.edgehd_query_latency(topo, medium, 1);
  const auto l2 = model.edgehd_query_latency(topo, medium, 2);
  const auto l3 = model.edgehd_query_latency(topo, medium, 3);
  EXPECT_LT(l1, l2);
  EXPECT_LT(l2, l3);
}

TEST(CostModel, LocalInferenceBeatsCentralizedLatencyOnSlowNetworks) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& bt = net::medium(net::MediumKind::kBluetooth4);
  const auto central = model.centralized_query_latency(
      topo, bt, net::hd_fpga_central(),
      model.hd_central_infer_macs_per_query(true));
  EXPECT_GT(central, model.edgehd_query_latency(topo, bt, 1));
}

TEST(CostModel, RoutedInferenceCostsLessThanAllCentral) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  const auto routed = model.edgehd_inference_routed(topo, medium);
  const auto all_central = model.edgehd_inference_at_level(topo, medium, 3);
  EXPECT_LT(routed.bytes, all_central.bytes);
}

TEST(CostModel, ValidatesLevelArguments) {
  const CostModel model(pamap_shape());
  const auto topo = net::Topology::paper_tree(3);
  const auto& medium = net::medium(net::MediumKind::kWired1G);
  EXPECT_THROW(model.edgehd_inference_at_level(topo, medium, 0),
               std::invalid_argument);
  EXPECT_THROW(model.edgehd_inference_at_level(topo, medium, 9),
               std::invalid_argument);
  EXPECT_THROW(model.edgehd_inference_at_level(topo, medium, 2, 0.0),
               std::invalid_argument);
  EXPECT_THROW(model.edgehd_query_latency(topo, medium, 0),
               std::invalid_argument);
}

TEST(CostModel, WirelessSharedDomainHurtsDeepCentralizedTrees) {
  // With a shared wireless medium, per-hop forwarding serializes: deeper
  // centralized hierarchies pay more (the Figure 13 mechanism).
  const CostModel model(pamap_shape());
  const auto& wifi = net::medium(net::MediumKind::kWifi80211n);
  const auto shallow = model.evaluate(
      Deployment::kHdFpga, net::Topology::uniform_depth(3, 2), wifi);
  const auto deep = model.evaluate(
      Deployment::kHdFpga, net::Topology::uniform_depth(3, 5), wifi);
  EXPECT_GT(deep.train.time, shallow.train.time);
}

}  // namespace
