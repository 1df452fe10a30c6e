// Characterization pins for everything that consults liveness: routed
// inference, the serving plane's failover and the training-side sessions
// under crash, outage and loss faults, in oracle and detector mode.
//
// The determinism suites compare worker counts with one another; these pins
// compare a run with a fixed FNV-1a hash of its observable outcome, so any
// change to faulted behaviour — which node serves, what is charged, what is
// marked degraded, what the sessions park or deliver — fails here even when
// it is perfectly deterministic.
//
// Every scenario but the regeneration and random-hierarchy pins uses
// LinearLevelEncoder leaves (no libm transcendentals in encoding) and the
// exact integer byte accounting. Regeneration needs RFF leaves, so those two
// pins rest on the default sparse RBF encoder (cos/sin), as the model hashes
// in test_collective.cpp do. Updating
// a pin is only legitimate after an intentional semantic change: re-run,
// read the actual value from the failure output and record why it moved.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace {

using namespace edgehd;
using net::FaultPlan;
using net::kMillisecond;
using net::kSecond;
using net::NodeId;

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
};

void mix_result(Fnv& f, const core::RoutedResult& r) {
  f.mix(r.label);
  f.mix(static_cast<std::uint64_t>(r.node));
  f.mix(r.level);
  f.mix(std::bit_cast<std::uint64_t>(r.confidence));
  f.mix(r.bytes);
  f.mix(r.retry_bytes);
  f.mix(r.degraded ? 1 : 0);
}

void mix_comm(Fnv& f, const core::CommStats& c) {
  f.mix(c.bytes);
  f.mix(c.messages);
}

void mix_models(Fnv& f, const core::EdgeHdSystem& sys) {
  const NodeId root = sys.topology().root();
  const auto& clf = sys.classifier_at(root);
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    for (const std::int32_t v : clf.class_accumulator(c)) {
      f.mix(static_cast<std::uint32_t>(v));
    }
  }
  for (const NodeId id : sys.stragglers()) f.mix(id);
}

data::Dataset pin_dataset(std::size_t train, std::size_t test) {
  auto ds = data::make_synthetic("pins", 40, 3, {10, 10, 10, 10}, train, test,
                                 57, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  return ds;
}

core::SystemConfig pin_cfg(bool detector) {
  core::SystemConfig cfg;
  cfg.total_dim = 800;
  cfg.batch_size = 6;
  cfg.num_threads = 2;
  cfg.leaf_encoder = hdc::EncoderKind::kLinearLevel;
  cfg.detector.enabled = detector;
  return cfg;
}

/// The deepest non-root ancestor of the first leaf (the first leaf itself
/// in a star).
NodeId gateway_of(const net::Topology& topo) {
  const NodeId leaf = topo.leaves().front();
  const NodeId parent = topo.parent(leaf);
  return parent == topo.root() ? leaf : parent;
}

enum class Fault { kCrash, kOutage, kLoss };

/// Static (whole-run) fault plans over `topo`.
FaultPlan static_plan(const net::Topology& topo, Fault fault) {
  const auto leaves = topo.leaves();
  FaultPlan plan(41);
  switch (fault) {
    case Fault::kCrash:
      plan.crash(gateway_of(topo)).crash(leaves[1]);
      break;
    case Fault::kOutage:
      plan.outage(gateway_of(topo)).outage(leaves.back());
      break;
    case Fault::kLoss:
      for (const NodeId leaf : leaves) plan.loss(leaf, 0.3);
      plan.loss(gateway_of(topo), 0.1);
      break;
  }
  return plan;
}

// ------------------------------------------------------------ routed batch

std::uint64_t routed_grid_hash(const net::Topology& topo) {
  const auto ds = pin_dataset(240, 48);
  Fnv f;
  std::size_t escalated = 0, degraded = 0, unserved = 0, retried = 0;
  for (const bool detector : {false, true}) {
    for (const bool serve_degraded : {true, false}) {
      auto cfg = pin_cfg(detector);
      cfg.confidence_threshold = 0.85;
      cfg.failover.serve_degraded = serve_degraded;
      core::EdgeHdSystem sys(ds, topo, cfg);
      sys.train();
      for (const Fault fault : {Fault::kCrash, Fault::kOutage, Fault::kLoss}) {
        sys.set_fault_plan(static_plan(topo, fault));
        for (const NodeId start : {topo.leaves()[0], topo.leaves()[1],
                                   topo.leaves().back()}) {
          for (const auto& r : sys.infer_routed_batch(ds.test_x, start)) {
            mix_result(f, r);
            if (r.served() && r.node != start) ++escalated;
            if (r.served() && r.degraded) ++degraded;
            if (!r.served()) ++unserved;
            if (r.retry_bytes > 0) ++retried;
          }
        }
        sys.clear_health();
      }
    }
  }
  // The grid exercises every branch it pins.
  EXPECT_GT(escalated, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(unserved, 0u);
  EXPECT_GT(retried, 0u);
  return f.h;
}

TEST(LivenessPins, RoutedBatchPaperTree) {
  EXPECT_EQ(routed_grid_hash(net::Topology::paper_tree(4)),
            0x0223d91ae9febe73ULL);
}

TEST(LivenessPins, RoutedBatchStar) {
  EXPECT_EQ(routed_grid_hash(net::Topology::star(4)), 0xd750a2c01478d29fULL);
}

// ----------------------------------------------------------------- serving

void mix_report(Fnv& f, const serve::ServeReport& r) {
  f.mix(r.reply_hash);
  f.mix(r.submitted);
  f.mix(r.served);
  f.mix(r.served_degraded);
  f.mix(r.unserved);
  f.mix(r.escalation_hops);
  f.mix(r.failover_retries);
  f.mix(r.failover_reroutes);
  f.mix(r.failover_exhausted);
}

// The ChaosServe scenario: detector mode, a gateway crash window in the
// middle of the arrival span, a generous failover budget.
TEST(LivenessPins, ChaosServeFailover) {
  const auto ds = pin_dataset(400, 100);
  const auto topo = net::Topology::paper_tree(4);
  FaultPlan plan(31);
  plan.crash(topo.parent(topo.leaves().front()), 30 * kMillisecond,
             90 * kMillisecond);
  serve::ServeConfig scfg;
  scfg.failover_retries = 20;
  scfg.failover_backoff = 4 * kMillisecond;
  auto cfg = pin_cfg(/*detector=*/true);
  cfg.confidence_threshold = 1.1;  // every query escalates
  core::EdgeHdSystem sys(ds, topo, cfg);
  sys.train();
  auto engine = sys.serve_start(scfg);
  engine->set_fault_plan(plan);
  const auto report = engine->run(
      serve::LoadSpec::poisson(topo.leaves(), 1000.0, 400, 9));
  EXPECT_GT(report.failover_reroutes, 0u);
  Fnv f;
  mix_report(f, report);
  EXPECT_EQ(f.h, 0x33e049ab7f4e7335ULL);
}

// The Serve.GatewayOutageWindowDegradesThenRecovers scenario, in both modes.
TEST(LivenessPins, GatewayOutageWindowServe) {
  const auto ds = pin_dataset(600, 120);
  const auto topo = net::Topology::paper_tree(4);
  const auto leaves = topo.leaves();
  FaultPlan plan(31);
  plan.crash(topo.parent(leaves.front()), 50 * kMillisecond,
             150 * kMillisecond);
  serve::ServeConfig scfg;
  scfg.queue_depth = 1u << 14;
  scfg.max_batch = 16;
  Fnv f;
  for (const bool detector : {false, true}) {
    auto cfg = pin_cfg(detector);
    cfg.confidence_threshold = 0.97;
    core::EdgeHdSystem sys(ds, topo, cfg);
    sys.train();
    const auto report = sys.serve_run(
        scfg,
        serve::LoadSpec::poisson({leaves.begin(), leaves.end()}, 4000.0, 1000,
                                 13),
        plan);
    EXPECT_GT(report.served_degraded, 0u);
    mix_report(f, report);
  }
  EXPECT_EQ(f.h, 0x58b37f5f527312aaULL);
}

// --------------------------------------------------------------- sessions

/// What a session lifecycle pins, in two parts: the models, stragglers and
/// routed results it produced, and the CommStats it charged. Kept apart so a
/// change to how bytes move (a different training schedule) re-pins only
/// the traffic, never the models.
struct LifecycleHashes {
  std::uint64_t models;
  std::uint64_t comm;
};

/// train -> online feedback -> propagate_residuals under a gateway crash
/// window, a permanent leaf outage and a lossy leaf, then recovery:
/// reintegrate_stragglers and rejoin_node once the crash window closes.
LifecycleHashes lifecycle_hash(bool detector) {
  const auto ds = pin_dataset(300, 60);
  const auto topo = net::Topology::paper_tree(4);
  const auto leaves = topo.leaves();
  const NodeId gw = topo.parent(leaves.front());
  FaultPlan plan(17);
  plan.crash(gw, 0, 1 * kSecond).outage(leaves.back()).loss(leaves[2], 0.2);

  core::EdgeHdSystem sys(ds, topo, pin_cfg(detector));
  sys.set_fault_plan(plan, 0);
  Fnv f;
  Fnv comm;
  mix_comm(comm, sys.train());
  mix_models(f, sys);
  EXPECT_FALSE(sys.stragglers().empty());

  for (std::size_t s = 0; s < ds.test_size(); ++s) {
    mix_result(f, sys.online_serve(ds.test_x[s], ds.test_y[s],
                                   leaves[s % leaves.size()]));
  }
  mix_comm(comm, sys.propagate_residuals());
  mix_models(f, sys);

  // The crash window closes; the outage and the loss persist.
  if (detector) {
    sys.advance_detector(2 * kSecond);
  } else {
    sys.set_fault_plan(plan, 2 * kSecond);
  }
  const auto reintegrated = sys.reintegrate_stragglers();
  EXPECT_GT(reintegrated.bytes, 0u);
  mix_comm(comm, reintegrated);
  mix_models(f, sys);
  const auto rejoined = sys.rejoin_node(
      gw, detector ? std::nullopt : std::optional<std::uint64_t>(1));
  EXPECT_GT(rejoined.bytes, 0u);
  mix_comm(comm, rejoined);
  mix_models(f, sys);
  return {f.h, comm.h};
}

TEST(LivenessPins, SessionsUnderFaultsOracle) {
  const auto h = lifecycle_hash(/*detector=*/false);
  EXPECT_EQ(h.models, 0xcfdd82b11b827bc2ULL);
  EXPECT_EQ(h.comm, 0x32f0cdf58949487eULL);
}

TEST(LivenessPins, SessionsUnderFaultsDetector) {
  const auto h = lifecycle_hash(/*detector=*/true);
  EXPECT_EQ(h.models, 0x3a7b3c6cfd7de765ULL);
  EXPECT_EQ(h.comm, 0x32f0cdf58949487eULL);
}


// ------------------------------------------------- dimension regeneration

/// train_initial -> retrain -> regenerate -> retrain -> regenerate (round 2)
/// -> retrain with RFF leaves, optionally with one leaf's uplink out for the
/// whole run (that leaf receives no request and keeps its projection). The
/// second round reads the training encodings the first round left behind,
/// so the hash covers how regeneration refreshes them. Mixes every
/// classifier node's class accumulators and test accuracy.
std::uint64_t regen_hash(hdc::ProjectionMode mode, hier::AggregationMode agg,
                         bool faulted, std::size_t threads) {
  const auto ds = pin_dataset(240, 48);
  const auto topo = net::Topology::paper_tree(4);
  core::SystemConfig cfg;
  cfg.total_dim = 800;
  cfg.batch_size = 6;
  cfg.num_threads = threads;
  cfg.projection_mode = mode;
  cfg.aggregation = agg;
  core::EdgeHdSystem sys(ds, topo, cfg);
  if (faulted) sys.set_fault_plan(FaultPlan(23).outage(topo.leaves()[1]));
  constexpr std::size_t kRegen = 24;
  sys.train_initial();
  sys.retrain_batches();
  sys.regenerate_dimensions(kRegen);
  sys.retrain_batches();
  sys.regenerate_dimensions(kRegen, 2);
  sys.retrain_batches();
  Fnv f;
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    if (!sys.has_classifier(id)) continue;
    const auto& clf = sys.classifier_at(id);
    for (std::size_t c = 0; c < clf.num_classes(); ++c) {
      for (const std::int32_t v : clf.class_accumulator(c)) {
        f.mix(static_cast<std::uint32_t>(v));
      }
    }
    f.mix(std::bit_cast<std::uint64_t>(sys.accuracy_at_node(id)));
  }
  return f.h;
}

TEST(LivenessPins, TwoRegenerationRounds) {
  struct Case {
    hdc::ProjectionMode mode;
    hier::AggregationMode agg;
    bool faulted;
    std::uint64_t pin;
  };
  using hier::AggregationMode;
  using hdc::ProjectionMode;
  const Case cases[] = {
      {ProjectionMode::kStored, AggregationMode::kConcatenation, false,
       0xb1a64e112df8b94fULL},
      {ProjectionMode::kStored, AggregationMode::kConcatenation, true,
       0x831a694dcdafebe0ULL},
      {ProjectionMode::kStored, AggregationMode::kHolographic, false,
       0xf3c23d4b5e2a28a4ULL},
      {ProjectionMode::kStored, AggregationMode::kHolographic, true,
       0x5d165f0390a1b334ULL},
      {ProjectionMode::kDeterministic, AggregationMode::kConcatenation, false,
       0xdbed5bf207b2e3a8ULL},
      {ProjectionMode::kDeterministic, AggregationMode::kConcatenation, true,
       0xae062d894ba7c0c6ULL},
      {ProjectionMode::kDeterministic, AggregationMode::kHolographic, false,
       0x1abb68063c04f3f1ULL},
      {ProjectionMode::kDeterministic, AggregationMode::kHolographic, true,
       0x4288d5362583e713ULL},
  };
  for (const Case& c : cases) {
    const auto where = ::testing::Message()
                       << hdc::to_string(c.mode) << " aggregation "
                       << static_cast<int>(c.agg) << " faulted " << c.faulted;
    const std::uint64_t h = regen_hash(c.mode, c.agg, c.faulted, 1);
    EXPECT_EQ(h, c.pin) << where;
    for (const std::size_t threads : {2, 8}) {
      EXPECT_EQ(regen_hash(c.mode, c.agg, c.faulted, threads), h)
          << where << " threads " << threads;
    }
  }
}

// ------------------------------------------------------ random hierarchies

/// splitmix64: a portable, seedable draw for the topology generator.
struct Draw {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

/// A seeded tree of depth 2-4 (paper levels), fan-out 1-6, in which some
/// leaves hang directly off nodes above the bottom gateway tier, so level
/// widths are uneven. Node ids are a random permutation of creation order,
/// so neither level order nor parent-before-child matches id order.
net::Topology random_topology(std::uint64_t seed) {
  Draw d{seed};
  const std::size_t levels = 2 + d.below(3);
  constexpr std::size_t kBudget = 28;  // soft cap on the node count
  std::vector<std::size_t> parent{0};  // creation index; the root is 0
  std::vector<std::size_t> depth{0};
  std::vector<bool> internal{true};
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (!internal[i]) continue;
    std::size_t fan = 1 + d.below(6);
    if (parent.size() >= kBudget) fan = 1;
    for (std::size_t c = 0; c < fan; ++c) {
      const std::size_t cd = depth[i] + 1;
      // The first child keeps one full-depth chain alive; the others stop
      // early as leaves one time in three.
      const bool inner = cd + 1 < levels &&
                         (c == 0 || (parent.size() < kBudget &&
                                     d.below(3) != 0));
      parent.push_back(i);
      depth.push_back(cd);
      internal.push_back(inner);
    }
  }
  const std::size_t n = parent.size();
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[d.below(i)]);
  std::vector<NodeId> parents(n);
  parents[perm[0]] = net::kNoNode;
  for (std::size_t i = 1; i < n; ++i) parents[perm[i]] = perm[parent[i]];
  net::Topology topo(std::move(parents));
  EXPECT_EQ(topo.depth(), levels);
  return topo;
}

/// train_initial -> retrain -> regenerate -> retrain -> online mistakes ->
/// propagate_residuals -> reintegrate_stragglers over ~20 seeded random
/// hierarchies with sparse RBF leaves. The faulted variant cuts one seeded
/// non-root uplink for the first second and re-snapshots the plan at 2 s
/// before reintegration, so parked contributions travel home. Mixes every
/// classifier's accumulators, each phase's CommStats, the routed results
/// and the straggler list.
std::uint64_t random_tree_hash(hier::AggregationMode agg, bool faulted,
                               std::size_t threads) {
  Fnv f;
  std::size_t residual_bytes = 0;
  std::size_t straggled = 0;
  for (std::uint64_t t = 0; t < 20; ++t) {
    const auto topo = random_topology(0x5eed0000ULL + t);
    Draw d{0xfa17ULL + t};
    std::vector<std::size_t> partitions(topo.leaves().size());
    for (auto& p : partitions) p = 2 + d.below(3);
    const std::size_t features =
        std::accumulate(partitions.begin(), partitions.end(), std::size_t{0});
    auto ds = data::make_synthetic("tree" + std::to_string(t), features, 3,
                                   partitions, 120, 24, 61 + t, 3.0F, 0.6F,
                                   0.4F);
    data::zscore_normalize(ds);

    core::SystemConfig cfg;
    cfg.total_dim = 640;
    cfg.batch_size = 5;
    cfg.retrain_epochs = 3;
    cfg.num_threads = threads;
    cfg.aggregation = agg;
    cfg.leaf_encoder = hdc::EncoderKind::kRbfSparse;
    cfg.classify_min_level = 1 + t % 2;
    cfg.confidence_threshold = 0.8;
    core::EdgeHdSystem sys(ds, topo, cfg);

    FaultPlan plan(29 + t);
    if (faulted) {
      NodeId cut = d.below(topo.num_nodes());
      if (cut == topo.root()) cut = topo.leaves().front();
      plan.outage(cut, 0, 1 * kSecond);
      sys.set_fault_plan(plan, 0);
    }

    auto mix_phase = [&](const core::CommStats& c) {
      mix_comm(f, c);
      for (NodeId id = 0; id < topo.num_nodes(); ++id) {
        if (!sys.has_classifier(id)) continue;
        const auto& clf = sys.classifier_at(id);
        for (std::size_t c2 = 0; c2 < clf.num_classes(); ++c2) {
          for (const std::int32_t v : clf.class_accumulator(c2)) {
            f.mix(static_cast<std::uint32_t>(v));
          }
        }
      }
      f.mix(sys.stragglers().size());
      for (const NodeId id : sys.stragglers()) f.mix(id);
    };

    mix_phase(sys.train_initial());
    straggled += sys.stragglers().size();
    mix_phase(sys.retrain_batches());
    mix_phase(sys.regenerate_dimensions(8));
    mix_phase(sys.retrain_batches());
    const auto leaves = topo.leaves();
    for (std::size_t s = 0; s < 12; ++s) {
      NodeId start = leaves[s % leaves.size()];
      if (!sys.has_classifier(start)) start = topo.parent(start);
      mix_result(f, sys.online_serve(ds.test_x[s], ds.test_y[s], start));
    }
    const auto residuals = sys.propagate_residuals();
    residual_bytes += residuals.bytes;
    mix_phase(residuals);
    if (faulted) sys.set_fault_plan(plan, 2 * kSecond);
    mix_phase(sys.reintegrate_stragglers());
  }
  // The grid exercises what it pins.
  EXPECT_GT(residual_bytes, 0u);
  if (faulted) {
    EXPECT_GT(straggled, 0u);
  }
  return f.h;
}

TEST(LivenessPins, RandomHierarchySessions) {
  struct Case {
    hier::AggregationMode agg;
    bool faulted;
    std::uint64_t pin;
  };
  using hier::AggregationMode;
  const Case cases[] = {
      {AggregationMode::kConcatenation, false, 0x865a7f01b00b97a6ULL},
      {AggregationMode::kConcatenation, true, 0x07a3c52d111fcb2aULL},
      {AggregationMode::kHolographic, false, 0x5e56cd2f903821deULL},
      {AggregationMode::kHolographic, true, 0xf48e0e72c4e2b691ULL},
  };
  for (const Case& c : cases) {
    const auto where = ::testing::Message()
                       << "aggregation " << static_cast<int>(c.agg)
                       << " faulted " << c.faulted;
    const std::uint64_t h = random_tree_hash(c.agg, c.faulted, 1);
    EXPECT_EQ(h, c.pin) << where;
    for (const std::size_t threads : {2, 8}) {
      EXPECT_EQ(random_tree_hash(c.agg, c.faulted, threads), h)
          << where << " threads " << threads;
    }
  }
}

}  // namespace
