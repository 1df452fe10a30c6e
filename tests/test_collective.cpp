// Training traffic: the fused subtree reduce (one ReducePartial per live
// edge per phase, src/proto/sessions.cpp + section_codec.cpp).
//
// The fused frame is a lossless rearrangement of the per-class and
// per-(class, batch) accumulators the point-to-point schedule used to post
// one by one: sections scatter into the same inboxes and the section codec
// round-trips exactly. So the models here are pinned to hashes recorded
// from that point-to-point run — across randomized topologies, worker
// counts and seeded fault plans — and the bytes are held to the reduction
// fusion must deliver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "hdc/random.hpp"
#include "hier/hier_encoder.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "proto/envelope.hpp"
#include "proto/messages.hpp"
#include "proto/node_runtime.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd;
using net::NodeId;
using proto::Envelope;

// ---- randomized topologies --------------------------------------------------

/// Seeded random tree: 1-4 leaf-to-root hops, per-node fan-out 1-8, total
/// width capped so the synthetic dataset keeps a few features per leaf.
net::Topology random_tree(hdc::Rng& rng, std::size_t max_leaves = 24) {
  const std::size_t hops = 1 + rng.index(4);
  std::vector<NodeId> parents{net::kNoNode};
  std::vector<NodeId> frontier{0};
  for (std::size_t level = 0; level < hops; ++level) {
    std::vector<NodeId> next;
    for (std::size_t at = 0; at < frontier.size(); ++at) {
      // Every remaining frontier node still needs >= 1 child, so budget the
      // fan-out to keep the final width within max_leaves.
      const std::size_t reserve = frontier.size() - at - 1;
      const std::size_t budget =
          max_leaves > next.size() + reserve ? max_leaves - next.size() - reserve
                                             : 1;
      const std::size_t fan = 1 + rng.index(std::min<std::size_t>(8, budget));
      for (std::size_t k = 0; k < fan; ++k) {
        next.push_back(parents.size());
        parents.push_back(frontier[at]);
      }
    }
    frontier = std::move(next);
  }
  return net::Topology(std::move(parents));
}

data::Dataset dataset_for(const net::Topology& topo, std::uint64_t seed) {
  const std::size_t leaves = topo.leaves().size();
  const std::vector<std::size_t> parts(leaves, 3);
  auto ds = data::make_synthetic("coll" + std::to_string(seed), 3 * leaves, 3,
                                 parts, 180, 30, 70 + seed, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  return ds;
}

core::SystemConfig base_cfg(const net::Topology& topo) {
  core::SystemConfig cfg;
  cfg.total_dim = 40 * topo.leaves().size();
  cfg.batch_size = 5;
  return cfg;
}

/// FNV-1a over every hosted classifier's class accumulators (node-id
/// order) and the straggler list: the observable training outcome.
std::uint64_t model_hash(const core::EdgeHdSystem& sys) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  const auto& topo = sys.topology();
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    if (!sys.has_classifier(id)) continue;
    const auto& clf = sys.classifier_at(id);
    for (std::size_t c = 0; c < clf.num_classes(); ++c) {
      for (const std::int32_t v : clf.class_accumulator(c)) {
        mix(static_cast<std::uint32_t>(v));
      }
    }
  }
  for (const NodeId id : sys.stragglers()) mix(id);
  return h;
}

// ---- model pins --------------------------------------------------------------
//
// Recorded from the point-to-point schedule (one frame per class, one
// BatchUpdate per (class, batch)); the fused reduce must reproduce them bit
// for bit.

TEST(CollectiveDifferential, RandomTopologiesBitIdenticalAcrossSchedules) {
  constexpr std::uint64_t kPins[] = {
      0xbef3a27cb64c22b4ULL, 0xd1f48a4fcf9d3acfULL, 0xdb0f67116e8ab4daULL,
      0x4572281480c01377ULL, 0xefa0dee68f43e07dULL, 0x737867c0523fed2cULL};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    hdc::Rng rng(900 + seed);
    const auto topo = random_tree(rng);
    const auto ds = dataset_for(topo, seed);
    core::EdgeHdSystem sys(ds, topo, base_cfg(topo));
    auto comm = sys.train_initial();
    comm += sys.retrain_batches();
    EXPECT_EQ(model_hash(sys), kPins[seed - 1]) << "seed " << seed;
    // One fused frame per edge per phase.
    EXPECT_EQ(comm.messages, 2 * (topo.num_nodes() - 1)) << "seed " << seed;
  }
}

TEST(CollectiveDifferential, WorkerCountsDoNotChangeCollectiveModels) {
  constexpr std::uint64_t kPin = 0xf2a2dfc4633ae17dULL;
  hdc::Rng rng(77);
  const auto topo = random_tree(rng);
  const auto ds = dataset_for(topo, 77);
  auto cfg = base_cfg(topo);

  std::optional<core::CommStats> comm_one;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    cfg.num_threads = workers;
    core::EdgeHdSystem sys(ds, topo, cfg);
    auto comm = sys.train_initial();
    comm += sys.retrain_batches();
    EXPECT_EQ(model_hash(sys), kPin) << "workers " << workers;
    if (!comm_one) comm_one = comm;
    EXPECT_EQ(comm.bytes, comm_one->bytes) << workers;
    EXPECT_EQ(comm.messages, comm_one->messages) << workers;
  }
}

TEST(CollectiveDifferential, SeededFaultPlansPreserveBitIdentity) {
  // {after the faulted training pass, after recovery}, per seed.
  constexpr std::uint64_t kPins[][2] = {
      {0x4ee5f1c4dd1fa949ULL, 0x33b606f85f86f728ULL},
      {0x0cd4c9dcc6c2c542ULL, 0x3ca34148b5c75e61ULL},
      {0x740625d4c96a3d9dULL, 0xd255ea6a9915a31eULL},
      {0x187649a03960b0e3ULL, 0xc21a175977cf11b4ULL}};
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    hdc::Rng rng(1300 + seed);
    const auto topo = random_tree(rng);
    if (topo.num_nodes() < 3) continue;  // want a non-root node to fail
    const auto ds = dataset_for(topo, seed);
    core::EdgeHdSystem sys(ds, topo, base_cfg(topo));

    // Crash one random non-root node and cut one random uplink for the
    // whole training pass.
    net::FaultPlan plan(seed);
    const NodeId dead = 1 + rng.index(topo.num_nodes() - 1);
    const NodeId cut = 1 + rng.index(topo.num_nodes() - 1);
    plan.crash(dead, 0, net::kForever);
    plan.outage(cut, 0, net::kForever);
    sys.set_fault_plan(plan, 0);

    sys.train_initial();
    sys.retrain_batches();
    EXPECT_EQ(model_hash(sys), kPins[seed - 11][0]) << "faulted seed " << seed;

    // Recovery: reintegration ships the parked contributions hop by hop.
    sys.clear_health();
    sys.reintegrate_stragglers();
    EXPECT_EQ(model_hash(sys), kPins[seed - 11][1])
        << "recovered seed " << seed;
  }
}

// ---- training traffic on a deep tree ------------------------------------------

/// Initial training + one retraining pass on a Figure-13-style deep tree
/// (48 leaves, 5 levels, 4 classes, B = 5): the deployment where per-frame
/// costs compound across levels.
core::CommStats deep_tree_training_comm() {
  constexpr std::size_t kLeaves = 48;
  const std::vector<std::size_t> parts(kLeaves, 3);
  auto ds = data::make_synthetic("pecanish", 3 * kLeaves, 4, parts, 480, 80,
                                 99, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = kLeaves * 128;
  cfg.batch_size = 5;
  core::EdgeHdSystem sys(ds, net::Topology::uniform_depth(kLeaves, 5), cfg);
  auto comm = sys.train_initial();
  comm += sys.retrain_batches();
  return comm;
}

/// Training bytes of the point-to-point schedule (one frame per class and
/// per (class, batch)) on deep_tree_training_comm's deployment.
constexpr std::uint64_t kPointToPointDeepTreeBytes = 1456576;

TEST(TrainingTraffic, DeepTreeFusedBytesAtMostThreeQuartersOfPointToPoint) {
  // Entropy coding the whole contribution as a unit must cut at least a
  // quarter of the point-to-point bytes.
  EXPECT_LE(4 * deep_tree_training_comm().bytes,
            3 * kPointToPointDeepTreeBytes);
}

// ---- NodeRuntime scatter contract -------------------------------------------

hdc::AccumHV random_accum(std::size_t dim, std::int32_t magnitude,
                          std::uint64_t seed) {
  hdc::Rng rng(seed);
  hdc::AccumHV acc(dim);
  for (auto& v : acc) {
    v = static_cast<std::int32_t>(rng.index(2 * magnitude + 1)) - magnitude;
  }
  return acc;
}

TEST(CollectiveScatter, FusedFrameMatchesPerClassDelivery) {
  // A gateway fed one fused initial-training frame per child must close its
  // phase with exactly what its aggregator makes of the same per-class
  // accumulators.
  const auto topo = net::Topology::paper_tree(4);
  const NodeId gw = topo.parent(topo.leaves().front());
  const auto kids = topo.children(gw);

  proto::NodeRuntime fused;
  fused.init(gw, topo, 16, 2);
  fused.install_aggregator(std::make_unique<hier::HierEncoder>(
      std::vector<std::size_t>(kids.size(), 16), 16, 99));
  fused.begin_initial_training();
  // [class][child]: the aggregator's input slots per class.
  std::vector<std::vector<hdc::AccumHV>> slots(2);
  for (std::size_t k = 0; k < kids.size(); ++k) {
    const std::vector<hdc::AccumHV> contrib{
        random_accum(16, 30, 900 + k), random_accum(16, 30, 910 + k)};
    fused.on_envelope({proto::kProtoVersion, kids[k], gw,
                       proto::ReducePartial{
                           proto::kReduceInitial,
                           static_cast<std::uint32_t>(kids[k]), contrib}});
    for (std::size_t c = 0; c < 2; ++c) slots[c].push_back(contrib[c]);
  }
  const hier::HierEncoder reference(std::vector<std::size_t>(kids.size(), 16),
                                    16, 99);
  const std::vector<hdc::AccumHV> expect{reference.aggregate_accum(slots[0]),
                                         reference.aggregate_accum(slots[1])};
  runtime::ThreadPool pool(1);
  EXPECT_EQ(fused.finish_initial_training(pool), expect);
}

TEST(CollectiveScatter, MalformedFusedFramesAreProtocolViolations) {
  const auto topo = net::Topology::paper_tree(4);
  const NodeId gw = topo.parent(topo.leaves().front());
  const NodeId child = topo.children(gw).front();
  proto::NodeRuntime rt;
  rt.init(gw, topo, 8, 2);
  // The aggregator supplies the child dimension every section is checked
  // against.
  rt.install_aggregator(std::make_unique<hier::HierEncoder>(
      std::vector<std::size_t>(topo.children(gw).size(), 8), 8, 99));

  const std::vector<hdc::AccumHV> two{random_accum(8, 3, 920),
                                      random_accum(8, 3, 921)};
  const Envelope initial{proto::kProtoVersion, child, gw,
                         proto::ReducePartial{proto::kReduceInitial,
                                              static_cast<std::uint32_t>(child),
                                              two}};
  // Training frames outside their phase are violations…
  EXPECT_THROW(rt.on_envelope(initial), std::logic_error);
  rt.begin_initial_training();
  // …as are section counts that disagree with the phase's shape.
  EXPECT_THROW(
      rt.on_envelope({proto::kProtoVersion, child, gw,
                      proto::ReducePartial{proto::kReduceInitial,
                                           static_cast<std::uint32_t>(child),
                                           {random_accum(8, 3, 922)}}}),
      std::logic_error);
  // Unknown phase bytes fail closed.
  for (const std::uint8_t phase : {2, 3, 9}) {
    EXPECT_THROW(
        rt.on_envelope({proto::kProtoVersion, child, gw,
                        proto::ReducePartial{
                            phase, static_cast<std::uint32_t>(child), two}}),
        std::logic_error)
        << int{phase};
  }
  EXPECT_NO_THROW(rt.on_envelope(initial));
}

}  // namespace
