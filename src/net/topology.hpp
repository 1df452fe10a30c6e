// Hierarchical network topologies (paper Section VI-A).
//
// All EdgeHD deployments are trees: end-node devices at the leaves, gateway
// nodes in the middle, one central node at the root. Levels follow the
// paper's convention: leaves are Level 1, and an internal node's level is
// one more than its deepest child (so the central node of a three-level TREE
// is Level 3).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace edgehd::net {

using NodeId = std::size_t;

/// Sentinel for "no parent" (the root).
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// An immutable rooted tree over nodes 0..num_nodes()-1.
class Topology {
 public:
  /// Builds from a parent vector; exactly one entry must be kNoNode (the
  /// root) and the graph must be a tree. Throws std::invalid_argument
  /// otherwise.
  explicit Topology(std::vector<NodeId> parents);

  std::size_t num_nodes() const noexcept { return parents_.size(); }
  NodeId root() const noexcept { return root_; }
  NodeId parent(NodeId id) const;
  /// A node's children in node-id order, as a view into the CSR child array
  /// (offsets + one flat list — no per-node vector, fleet-scale friendly).
  /// The view stays valid for the Topology's lifetime.
  std::span<const NodeId> children(NodeId id) const;
  bool is_leaf(NodeId id) const;

  /// Paper-convention level: 1 for leaves, 1 + max(child levels) otherwise.
  std::size_t level(NodeId id) const;

  /// Maximum level in the tree (the central node's level).
  std::size_t depth() const;

  /// All leaves, in node-id order.
  std::vector<NodeId> leaves() const;

  /// Every node sorted by (level, id), leaves first: the one bottom-up
  /// order, built at construction and valid for the Topology's lifetime.
  std::span<const NodeId> bottom_up() const noexcept { return level_list_; }

  /// The nodes at `level` in node-id order, a slice of bottom_up() (empty
  /// outside 1..depth()).
  std::span<const NodeId> nodes_at_level(std::size_t level) const;

  /// Number of hops from `id` up to the root.
  std::size_t hops_to_root(NodeId id) const;

  // ---- builders ----------------------------------------------------------

  /// STAR: `end_nodes` leaves directly under the central node.
  static Topology star(std::size_t end_nodes);

  /// The paper's TREE: gateways with two end-node children; a leftover end
  /// node (odd count) attaches directly to the central node, as in the APRI
  /// description of Section VI-A.
  static Topology paper_tree(std::size_t end_nodes);

  /// The Figure 8 PECAN hierarchy: `appliances` leaves grouped into houses
  /// of at most `per_house`, houses grouped into streets of at most
  /// `per_street`, streets under one central node (4 levels).
  static Topology pecan_tree(std::size_t appliances = 312,
                             std::size_t per_house = 6,
                             std::size_t per_street = 7);

  /// A depth-`levels` tree over `end_nodes` leaves used by the Figure 13
  /// sweep: leaves are grouped evenly into parents level by level until a
  /// single root remains at the requested depth.
  static Topology uniform_depth(std::size_t end_nodes, std::size_t levels);

 private:
  std::vector<NodeId> parents_;
  // Children in CSR layout: node id's children are
  // child_list_[child_off_[id] .. child_off_[id + 1]). Three flat arrays
  // total for the whole tree instead of one heap vector per node.
  std::vector<std::size_t> child_off_;  ///< n + 1 offsets into child_list_
  std::vector<NodeId> child_list_;      ///< all children, grouped by parent
  std::vector<std::size_t> levels_;
  // Level l's nodes are level_list_[level_off_[l - 1] .. level_off_[l]).
  std::vector<std::size_t> level_off_;  ///< depth + 1 offsets
  std::vector<NodeId> level_list_;      ///< every node, (level, id) order
  NodeId root_ = kNoNode;
};

}  // namespace edgehd::net
