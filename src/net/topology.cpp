#include "topology.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace edgehd::net {

Topology::Topology(std::vector<NodeId> parents) : parents_(std::move(parents)) {
  const std::size_t n = parents_.size();
  if (n == 0) {
    throw std::invalid_argument("Topology: empty parent vector");
  }
  // Children in CSR form, built in two counting passes over the parent
  // vector (validate + count, then prefix-sum + fill): three exactly-sized
  // flat allocations for the whole tree, no per-node vectors.
  child_off_.assign(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    const NodeId p = parents_[id];
    if (p == kNoNode) {
      if (root_ != kNoNode) {
        throw std::invalid_argument("Topology: multiple roots");
      }
      root_ = id;
    } else {
      if (p >= n || p == id) {
        throw std::invalid_argument("Topology: invalid parent reference");
      }
      ++child_off_[p + 1];
    }
  }
  if (root_ == kNoNode) {
    throw std::invalid_argument("Topology: no root");
  }
  for (std::size_t i = 1; i <= n; ++i) child_off_[i] += child_off_[i - 1];
  child_list_.resize(n - 1);  // every node but the root is someone's child
  {
    // Fill via a scratch cursor per parent; children land in node-id order
    // because ids are visited in order (same order the per-node vectors
    // produced). The cursor array doubles as the leaf-peel counter below.
    std::vector<std::size_t> cursor(child_off_.begin(), child_off_.end() - 1);
    for (NodeId id = 0; id < n; ++id) {
      const NodeId p = parents_[id];
      if (p != kNoNode) child_list_[cursor[p]++] = id;
    }
  }

  // Compute levels bottom-up and verify reachability (cycle check) in one
  // topological pass: count children-to-process per node, peel leaves
  // inward. Every node of a well-formed tree is processed exactly once.
  levels_.assign(n, 0);
  std::vector<std::size_t> pending(n);
  std::vector<NodeId> stack;
  for (NodeId id = 0; id < n; ++id) {
    pending[id] = child_off_[id + 1] - child_off_[id];
    if (pending[id] == 0) {
      levels_[id] = 1;
      stack.push_back(id);
    }
  }
  std::size_t processed = 0;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    ++processed;
    const NodeId p = parents_[id];
    if (p == kNoNode) continue;
    levels_[p] = std::max(levels_[p], levels_[id] + 1);
    if (--pending[p] == 0) stack.push_back(p);
  }
  if (processed != n) {
    throw std::invalid_argument("Topology: parent vector contains a cycle");
  }

  // Nodes by level, CSR like the children: a counting sort visiting ids in
  // order, so each level lists its nodes ascending.
  level_off_.assign(levels_[root_] + 1, 0);
  for (NodeId id = 0; id < n; ++id) ++level_off_[levels_[id]];
  std::partial_sum(level_off_.begin(), level_off_.end(), level_off_.begin());
  level_list_.resize(n);
  std::vector<std::size_t> next(level_off_.begin(), level_off_.end() - 1);
  for (NodeId id = 0; id < n; ++id) level_list_[next[levels_[id] - 1]++] = id;
}

NodeId Topology::parent(NodeId id) const {
  if (id >= parents_.size()) {
    throw std::out_of_range("Topology: node id out of range");
  }
  return parents_[id];
}

std::span<const NodeId> Topology::children(NodeId id) const {
  if (id >= parents_.size()) {
    throw std::out_of_range("Topology: node id out of range");
  }
  return {child_list_.data() + child_off_[id],
          child_off_[id + 1] - child_off_[id]};
}

bool Topology::is_leaf(NodeId id) const { return children(id).empty(); }

std::size_t Topology::level(NodeId id) const {
  if (id >= levels_.size()) {
    throw std::out_of_range("Topology: node id out of range");
  }
  return levels_[id];
}

std::size_t Topology::depth() const { return levels_[root_]; }

std::vector<NodeId> Topology::leaves() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    if (is_leaf(id)) out.push_back(id);
  }
  return out;
}

std::span<const NodeId> Topology::nodes_at_level(std::size_t level) const {
  if (level == 0 || level > depth()) return {};
  return {level_list_.data() + level_off_[level - 1],
          level_off_[level] - level_off_[level - 1]};
}

std::size_t Topology::hops_to_root(NodeId id) const {
  std::size_t hops = 0;
  for (NodeId cur = id; cur != root_; cur = parents_[cur]) ++hops;
  return hops;
}

Topology Topology::star(std::size_t end_nodes) {
  if (end_nodes == 0) {
    throw std::invalid_argument("Topology::star: need at least one end node");
  }
  std::vector<NodeId> parents(end_nodes + 1);
  const NodeId root = end_nodes;
  for (NodeId id = 0; id < end_nodes; ++id) parents[id] = root;
  parents[root] = kNoNode;
  return Topology(std::move(parents));
}

Topology Topology::paper_tree(std::size_t end_nodes) {
  if (end_nodes == 0) {
    throw std::invalid_argument("Topology::paper_tree: need end nodes");
  }
  const std::size_t gateways = end_nodes / 2;
  const bool leftover = (end_nodes % 2) != 0;
  const std::size_t n = end_nodes + gateways + 1;
  const NodeId root = n - 1;
  std::vector<NodeId> parents(n);
  for (NodeId id = 0; id < end_nodes; ++id) {
    const std::size_t pair = id / 2;
    // Paired end nodes hang under a gateway; the odd one out (if any)
    // attaches directly to the central node, per Section VI-A.
    parents[id] = (leftover && id == end_nodes - 1) ? root
                                                    : end_nodes + pair;
  }
  for (NodeId g = 0; g < gateways; ++g) parents[end_nodes + g] = root;
  parents[root] = kNoNode;
  return Topology(std::move(parents));
}

Topology Topology::pecan_tree(std::size_t appliances, std::size_t per_house,
                              std::size_t per_street) {
  if (appliances == 0 || per_house == 0 || per_street == 0) {
    throw std::invalid_argument("Topology::pecan_tree: sizes must be positive");
  }
  const std::size_t houses = (appliances + per_house - 1) / per_house;
  const std::size_t streets = (houses + per_street - 1) / per_street;
  const std::size_t n = appliances + houses + streets + 1;
  const NodeId root = n - 1;
  std::vector<NodeId> parents(n);
  for (NodeId a = 0; a < appliances; ++a) {
    parents[a] = appliances + std::min(a / per_house, houses - 1);
  }
  for (NodeId h = 0; h < houses; ++h) {
    parents[appliances + h] =
        appliances + houses + std::min(h / per_street, streets - 1);
  }
  for (NodeId s = 0; s < streets; ++s) {
    parents[appliances + houses + s] = root;
  }
  parents[root] = kNoNode;
  return Topology(std::move(parents));
}

Topology Topology::uniform_depth(std::size_t end_nodes, std::size_t levels) {
  if (end_nodes == 0 || levels < 2) {
    throw std::invalid_argument(
        "Topology::uniform_depth: need end nodes and depth >= 2");
  }
  // Choose a fanout so (levels-1) rounds of grouping reach a single root.
  const double f = std::pow(static_cast<double>(end_nodes),
                            1.0 / static_cast<double>(levels - 1));
  const std::size_t fanout = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(f)));

  std::vector<std::size_t> layer_sizes{end_nodes};
  while (layer_sizes.back() > 1) {
    layer_sizes.push_back((layer_sizes.back() + fanout - 1) / fanout);
  }
  // Pad with single-node layers if grouping converged early, so the tree has
  // exactly the requested depth.
  while (layer_sizes.size() < levels) layer_sizes.push_back(1);

  std::size_t total = 0;
  for (std::size_t s : layer_sizes) total += s;
  std::vector<NodeId> parents(total);
  std::size_t layer_start = 0;
  for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    const std::size_t cur = layer_sizes[l];
    const std::size_t nxt = layer_sizes[l + 1];
    const std::size_t next_start = layer_start + cur;
    for (std::size_t i = 0; i < cur; ++i) {
      // Spread children evenly over the next layer.
      parents[layer_start + i] = next_start + std::min(i * nxt / cur, nxt - 1);
    }
    layer_start = next_start;
  }
  parents[total - 1] = kNoNode;
  return Topology(std::move(parents));
}

}  // namespace edgehd::net
