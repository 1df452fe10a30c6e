#include "cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "hdc/wire.hpp"
#include "hier/dim_allocation.hpp"
#include "net/simulator.hpp"
#include "proto/messages.hpp"

namespace edgehd::core {

using net::NodeId;
using net::SimTime;

namespace {

/// DNN training epochs (grid-search scale, per Section VI-B).
constexpr std::uint64_t kDnnEpochs = 50;
/// MLP hidden layout used for the DNN op counts.
constexpr std::size_t kHidden1 = 128;
constexpr std::size_t kHidden2 = 64;
/// Sparsity of the HD encoders (Section VI-B reports 80%).
constexpr double kSparsity = 0.8;

std::size_t sparse_window(std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround((1.0 - kSparsity) * n)));
}

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

WorkloadShape WorkloadShape::from_spec(const data::DatasetSpec& spec) {
  WorkloadShape s;
  s.num_features = spec.num_features;
  s.num_classes = spec.num_classes;
  s.train_size = spec.paper_train;
  s.test_size = spec.paper_test;
  const std::size_t nodes = std::max<std::size_t>(1, spec.end_nodes);
  s.partitions.assign(nodes, spec.num_features / nodes);
  for (std::size_t i = 0; i < spec.num_features % nodes; ++i) {
    ++s.partitions[i];
  }
  return s;
}

CostModel::CostModel(WorkloadShape shape, SystemConfig config)
    : shape_(std::move(shape)), config_(config) {
  if (shape_.num_features == 0 || shape_.num_classes < 2 ||
      shape_.partitions.empty()) {
    throw std::invalid_argument("CostModel: invalid workload shape");
  }
  const std::size_t sum = std::accumulate(shape_.partitions.begin(),
                                          shape_.partitions.end(),
                                          std::size_t{0});
  if (sum != shape_.num_features) {
    throw std::invalid_argument("CostModel: partitions must sum to n");
  }
}

std::uint64_t CostModel::num_batches() const {
  const std::uint64_t per_class =
      ceil_div(shape_.train_size, shape_.num_classes);
  return shape_.num_classes * ceil_div(per_class, config_.batch_size);
}

std::uint64_t CostModel::dnn_train_macs() const {
  const std::uint64_t fwd =
      static_cast<std::uint64_t>(shape_.num_features) * kHidden1 +
      static_cast<std::uint64_t>(kHidden1) * kHidden2 +
      static_cast<std::uint64_t>(kHidden2) * shape_.num_classes;
  // forward + backward + weight gradients per sample, per epoch.
  return kDnnEpochs * shape_.train_size * 3 * fwd;
}

std::uint64_t CostModel::dnn_infer_macs_per_query() const {
  return static_cast<std::uint64_t>(shape_.num_features) * kHidden1 +
         static_cast<std::uint64_t>(kHidden1) * kHidden2 +
         static_cast<std::uint64_t>(kHidden2) * shape_.num_classes;
}

std::uint64_t CostModel::hd_central_train_macs(bool sparse_encoder) const {
  const std::uint64_t d = config_.total_dim;
  const std::uint64_t enc_per_sample =
      d * (sparse_encoder ? sparse_window(shape_.num_features)
                          : shape_.num_features);
  // Encode once + initial bundling, then per-sample associative search and
  // (bounded) model update per retraining epoch.
  const std::uint64_t initial = shape_.train_size * (enc_per_sample + d);
  const std::uint64_t retrain = config_.retrain_epochs * shape_.train_size *
                                d * (shape_.num_classes + 1);
  return initial + retrain;
}

std::uint64_t CostModel::hd_central_infer_macs_per_query(
    bool sparse_encoder) const {
  const std::uint64_t d = config_.total_dim;
  const std::uint64_t enc =
      d * (sparse_encoder ? sparse_window(shape_.num_features)
                          : shape_.num_features);
  return enc + d * shape_.num_classes;
}

std::vector<std::size_t> CostModel::node_dims(
    const net::Topology& topo) const {
  const auto alloc = hier::allocate_dims(topo, shape_.partitions,
                                         config_.total_dim,
                                         config_.min_node_dim);
  return alloc.dims;
}

std::uint64_t CostModel::compressed_query_bytes(std::size_t dim) const {
  return proto::compressed_query_wire_size(dim, config_.compression);
}

PhaseCosts CostModel::centralized_train(const net::Topology& topo,
                                        const net::Medium& medium,
                                        const net::Platform& platform,
                                        std::uint64_t compute_macs) const {
  net::Simulator sim(topo, medium);
  const auto leaves = topo.leaves();
  auto arrived = std::make_shared<std::size_t>(0);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const std::uint64_t bytes =
        shape_.train_size * hdc::wire_bytes_features(shape_.partitions[i]);
    sim.send_to_root(leaves[i], bytes, [&, arrived]() {
      if (++*arrived == leaves.size()) {
        sim.compute(topo.root(), net::time_for_macs(platform, compute_macs),
                    platform.active_power_w);
      }
    });
  }
  PhaseCosts costs;
  costs.time = sim.run();
  costs.energy_j = sim.total_energy_j();
  costs.bytes = sim.total_bytes_transferred();
  return costs;
}

PhaseCosts CostModel::centralized_infer(const net::Topology& topo,
                                        const net::Medium& medium,
                                        const net::Platform& platform,
                                        std::uint64_t macs_per_query) const {
  net::Simulator sim(topo, medium);
  const auto leaves = topo.leaves();
  auto arrived = std::make_shared<std::size_t>(0);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const std::uint64_t bytes =
        shape_.test_size * hdc::wire_bytes_features(shape_.partitions[i]);
    sim.send_to_root(leaves[i], bytes, [&, arrived]() {
      if (++*arrived == leaves.size()) {
        sim.compute(topo.root(),
                    net::time_for_macs(platform,
                                       macs_per_query * shape_.test_size),
                    platform.active_power_w);
      }
    });
  }
  PhaseCosts costs;
  costs.time = sim.run();
  costs.energy_j = sim.total_energy_j();
  costs.bytes = sim.total_bytes_transferred();
  return costs;
}

PhaseCosts CostModel::edgehd_train(const net::Topology& topo,
                                   const net::Medium& medium) const {
  const auto dims = node_dims(topo);
  const auto leaves = topo.leaves();
  const std::uint64_t batches = num_batches();
  const std::uint64_t k = shape_.num_classes;

  net::Simulator sim(topo, medium);

  // Bytes each node uploads to its parent: k class hypervectors plus the
  // batch hypervectors, each priced as a fixed-width accumulator sized to
  // its worst-case magnitude — an upper bound on the section-coded frames
  // the protocol actually ships (see the byte note in cost_model.hpp).
  auto upload_bytes = [&](NodeId id) -> std::uint64_t {
    const std::uint32_t class_bits = hdc::bits_for_magnitude(
        static_cast<std::int64_t>(ceil_div(shape_.train_size, k)));
    const std::uint32_t batch_bits = hdc::bits_for_magnitude(
        static_cast<std::int64_t>(config_.batch_size));
    return k * hdc::wire_bytes_accum(dims[id], class_bits) +
           batches * hdc::wire_bytes_accum(dims[id], batch_bits);
  };

  // Compute work per node, split into the part that gates the upload to the
  // parent (encoding/projection — batch hypervectors must exist before they
  // can be forwarded) and the part that runs off the critical path (the
  // node's own retraining, which nothing upstream waits for; the root's
  // retraining produces the final model and stays on the path).
  struct Work {
    SimTime on_path;
    SimTime off_path;
    double power;
  };
  auto node_work = [&](NodeId id) -> Work {
    const net::Platform& plat = id == topo.root()
                                    ? net::hd_fpga_central()
                                    : net::edge_node();
    const std::uint64_t d = dims[id];
    std::uint64_t path_macs = 0;
    if (topo.is_leaf(id)) {
      // Find the leaf's partition index to size the encoder window.
      const auto it = std::find(leaves.begin(), leaves.end(), id);
      const std::size_t n_i =
          shape_.partitions[static_cast<std::size_t>(it - leaves.begin())];
      // Encode + bundle every local observation.
      path_macs = shape_.train_size * d * (sparse_window(n_i) + 1);
    } else {
      // Hierarchical encoding of k class + `batches` batch hypervectors
      // (ternary adds, ~4x cheaper than MACs).
      path_macs = (k + batches) * config_.projection_row_nnz * d / 4;
    }
    const std::uint64_t retrain_macs =
        config_.retrain_epochs * batches * d * (k + 1);
    Work w{net::time_for_macs(plat, path_macs),
           net::time_for_macs(plat, retrain_macs), plat.active_power_w};
    if (id == topo.root()) {
      w.on_path += w.off_path;
      w.off_path = 0;
    }
    return w;
  };

  // Dataflow: every node runs its path work once all of its children's
  // uploads have arrived, then uploads to its parent; its retraining runs
  // concurrently with the upload. All events run inside sim.run() below, so
  // reference captures of these locals stay valid.
  std::vector<std::size_t> pending(topo.num_nodes());
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    pending[id] = topo.children(id).size();
  }
  std::function<void(NodeId)> process = [&](NodeId id) {
    const Work w = node_work(id);
    sim.compute(id, w.on_path, w.power, [&, id, w]() {
      if (id == topo.root()) return;
      const NodeId parent = topo.parent(id);
      sim.send(id, parent, upload_bytes(id), [&, parent]() {
        if (--pending[parent] == 0) process(parent);
      });
      if (w.off_path > 0) sim.compute(id, w.off_path, w.power);
    });
  };
  for (NodeId leaf : leaves) process(leaf);

  PhaseCosts costs;
  costs.time = sim.run();
  costs.energy_j = sim.total_energy_j();
  costs.bytes = sim.total_bytes_transferred();
  return costs;
}

PhaseCosts CostModel::edgehd_inference_routed(
    const net::Topology& topo, const net::Medium& medium,
    const std::vector<double>& level_fractions) const {
  PhaseCosts total;
  for (std::size_t i = 0; i < level_fractions.size(); ++i) {
    const std::size_t level = std::min(i + 1, topo.depth());
    if (level_fractions[i] <= 0.0) continue;
    const auto part =
        edgehd_inference_at_level(topo, medium, level, level_fractions[i]);
    total.time += part.time;
    total.energy_j += part.energy_j;
    total.bytes += part.bytes;
  }
  return total;
}

PhaseCosts CostModel::edgehd_inference_at_level(const net::Topology& topo,
                                                const net::Medium& medium,
                                                std::size_t level,
                                                double query_fraction) const {
  if (level == 0 || level > topo.depth()) {
    throw std::invalid_argument("CostModel: inference level out of range");
  }
  if (query_fraction <= 0.0 || query_fraction > 1.0) {
    throw std::invalid_argument("CostModel: query_fraction out of range");
  }
  const auto dims = node_dims(topo);
  const auto leaves = topo.leaves();
  const std::uint64_t k = shape_.num_classes;

  // Serving node per leaf: the nearest ancestor (or the leaf itself) whose
  // level is >= the requested level.
  std::vector<NodeId> serving_of(topo.num_nodes(), net::kNoNode);
  std::vector<NodeId> serving_set;
  for (NodeId leaf : leaves) {
    NodeId s = leaf;
    while (topo.level(s) < level && s != topo.root()) s = topo.parent(s);
    serving_of[leaf] = s;
    if (std::find(serving_set.begin(), serving_set.end(), s) ==
        serving_set.end()) {
      serving_set.push_back(s);
    }
  }
  // Queries round-robin over the serving nodes.
  const auto routed_queries = static_cast<std::uint64_t>(
      static_cast<double>(shape_.test_size) * query_fraction);
  const std::uint64_t queries_per_server =
      ceil_div(std::max<std::uint64_t>(routed_queries, 1),
               serving_set.size());

  net::Simulator sim(topo, medium);
  std::vector<std::size_t> pending(topo.num_nodes(), 0);
  // Count, for each non-leaf node at/below a serving node, how many children
  // participate in the gather.
  std::vector<bool> participates(topo.num_nodes(), false);
  for (NodeId leaf : leaves) {
    NodeId cur = leaf;
    participates[cur] = true;
    while (cur != serving_of[leaf]) {
      cur = topo.parent(cur);
      participates[cur] = true;
    }
  }
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    if (!participates[id] || topo.is_leaf(id)) continue;
    for (NodeId kid : topo.children(id)) {
      if (participates[kid]) ++pending[id];
    }
  }

  auto node_work = [&](NodeId id) -> std::pair<SimTime, double> {
    const bool serving = std::find(serving_set.begin(), serving_set.end(),
                                   id) != serving_set.end();
    const net::Platform& plat = id == topo.root()
                                    ? net::hd_fpga_central()
                                    : net::edge_node();
    std::uint64_t macs = 0;
    const std::uint64_t d = dims[id];
    if (topo.is_leaf(id)) {
      const auto it = std::find(leaves.begin(), leaves.end(), id);
      const std::size_t n_i =
          shape_.partitions[static_cast<std::size_t>(it - leaves.begin())];
      macs += queries_per_server * d * sparse_window(n_i);
    } else {
      // Ternary projection: sign-conditional adds on the fabric's adder
      // lanes, ~4x cheaper than DSP multiply-accumulates.
      macs += queries_per_server * config_.projection_row_nnz * d / 4;
    }
    if (serving) {
      macs += queries_per_server * d * k;  // associative search
    }
    return {net::time_for_macs(plat, macs), plat.active_power_w};
  };

  std::function<void(NodeId)> process = [&](NodeId id) {
    const auto [dur, power] = node_work(id);
    const bool serving = std::find(serving_set.begin(), serving_set.end(),
                                   id) != serving_set.end();
    sim.compute(id, dur, power, [&, id, serving]() {
      if (serving) return;  // answers terminate here
      const NodeId parent = topo.parent(id);
      const std::uint64_t bytes =
          queries_per_server * compressed_query_bytes(dims[id]);
      sim.send(id, parent, bytes, [&, parent]() {
        if (--pending[parent] == 0) process(parent);
      });
    });
  };
  for (NodeId leaf : leaves) process(leaf);

  PhaseCosts costs;
  costs.time = sim.run();
  costs.energy_j = sim.total_energy_j();
  costs.bytes = sim.total_bytes_transferred();
  return costs;
}

namespace {

/// Fixed per-query host-side overhead (sensor read, user-space handling,
/// accelerator DMA) charged on every interactive query, on both the
/// centralized server and the EdgeHD serving node.
constexpr SimTime kHostOverhead = 1 * net::kMillisecond;

}  // namespace

net::SimTime CostModel::centralized_query_latency(
    const net::Topology& topo, const net::Medium& medium,
    const net::Platform& platform, std::uint64_t macs_per_query) const {
  const auto leaves = topo.leaves();
  SimTime slowest = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const std::uint64_t bytes = hdc::wire_bytes_features(shape_.partitions[i]);
    const SimTime path = static_cast<SimTime>(topo.hops_to_root(leaves[i])) *
                         net::transfer_time(medium, bytes);
    slowest = std::max(slowest, path);
  }
  return kHostOverhead + slowest +
         net::time_for_macs(platform, macs_per_query);
}

net::SimTime CostModel::edgehd_query_latency(const net::Topology& topo,
                                             const net::Medium& medium,
                                             std::size_t level) const {
  if (level == 0 || level > topo.depth()) {
    throw std::invalid_argument("CostModel: inference level out of range");
  }
  const auto dims = node_dims(topo);
  const auto leaves = topo.leaves();

  // Serve at the level-`level` ancestor of the first leaf (deployments are
  // near-uniform, so any serving node is representative).
  net::NodeId server = leaves.front();
  while (topo.level(server) < level && server != topo.root()) {
    server = topo.parent(server);
  }

  // Slowest gather path from a leaf under the server: per-hop bipolar-query
  // transfer plus ternary projection at each gateway on the way.
  std::function<SimTime(net::NodeId)> gather = [&](net::NodeId id) -> SimTime {
    if (topo.is_leaf(id)) {
      const auto it = std::find(leaves.begin(), leaves.end(), id);
      const std::size_t n_i =
          shape_.partitions[static_cast<std::size_t>(it - leaves.begin())];
      return net::time_for_macs(net::edge_node(),
                                dims[id] * sparse_window(n_i));
    }
    SimTime slowest_child = 0;
    for (const net::NodeId kid : topo.children(id)) {
      const SimTime hop =
          gather(kid) +
          net::transfer_time(medium, hdc::wire_bytes_bipolar(dims[kid]));
      slowest_child = std::max(slowest_child, hop);
    }
    const SimTime projection = net::time_for_macs(
        net::edge_node(), config_.projection_row_nnz * dims[id] / 4);
    return slowest_child + projection;
  };

  const SimTime search = net::time_for_macs(
      net::edge_node(),
      static_cast<std::uint64_t>(dims[server]) * shape_.num_classes);
  return kHostOverhead + gather(server) + search;
}

ScenarioCosts CostModel::evaluate(Deployment dep, const net::Topology& topo,
                                  const net::Medium& medium) const {
  ScenarioCosts out;
  switch (dep) {
    case Deployment::kDnnGpu:
      out.train = centralized_train(topo, medium, net::dnn_gpu(),
                                    dnn_train_macs());
      out.infer = centralized_infer(topo, medium, net::dnn_gpu(),
                                    dnn_infer_macs_per_query());
      return out;
    case Deployment::kHdGpu:
      // The GPU runs the same EdgeHD algorithm, sparse encoder included.
      out.train = centralized_train(topo, medium, net::hd_gpu(),
                                    hd_central_train_macs(true));
      out.infer = centralized_infer(topo, medium, net::hd_gpu(),
                                    hd_central_infer_macs_per_query(true));
      return out;
    case Deployment::kHdFpga:
      out.train = centralized_train(topo, medium, net::hd_fpga_central(),
                                    hd_central_train_macs(true));
      out.infer = centralized_infer(topo, medium, net::hd_fpga_central(),
                                    hd_central_infer_macs_per_query(true));
      return out;
    case Deployment::kEdgeHd:
      out.train = edgehd_train(topo, medium);
      out.infer = edgehd_inference_routed(topo, medium);
      return out;
  }
  throw std::invalid_argument("CostModel: unknown deployment");
}

}  // namespace edgehd::core
