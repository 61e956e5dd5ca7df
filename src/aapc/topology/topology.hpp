// Network model from §3 of the paper: an Ethernet switched cluster is a
// tree G = (S ∪ M, E) whose internal structure is switches (S) and whose
// machines (M) are leaves; every physical link is a pair of directed
// edges (duplex operation).
//
// `Topology` is immutable after `finalize()`: all path/load queries are
// precomputed or O(path length). Machines are also addressable by *rank*
// (0..|M|-1, the MPI process numbering) independent of node ids.
//
// Adjacency is stored as CSR arrays built once by `finalize()`: one
// offset per node into flat neighbor and link arrays, filled in link
// insertion order, so `neighbors()` is a `std::span` over contiguous
// ids and a node's neighbors come in the order its links were added.
// There is no name index: `find_node` is an O(nodes) scan (tests and
// diagnostics only; parse_topology resolves names itself).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aapc/common/units.hpp"

namespace aapc::topology {

/// Index of a node (switch or machine) within a Topology.
using NodeId = std::int32_t;
/// Index of a *directed* edge. A physical link L between stored endpoints
/// (a, b) yields directed edges 2L (a→b) and 2L+1 (b→a).
using EdgeId = std::int32_t;
/// Index of a physical (undirected) link.
using LinkId = std::int32_t;
/// MPI-style machine rank in [0, |M|).
using Rank = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

enum class NodeKind : std::uint8_t { kSwitch, kMachine };

/// A tree-shaped switched-Ethernet network.
///
/// Build protocol: add_switch / add_machine / add_link in any order, then
/// finalize(). finalize() validates the tree invariants (connected,
/// acyclic, machines are leaves) and precomputes rooted structure for
/// path queries. All query methods require a finalized topology.
class Topology {
 public:
  Topology() = default;

  // ---- construction ----

  /// Adds a switch node. `name` is for diagnostics and serialization;
  /// empty means auto-name ("s<i>").
  NodeId add_switch(std::string name = {});

  /// Adds a machine node. Machines receive ranks in insertion order.
  NodeId add_machine(std::string name = {});

  /// Adds a duplex physical link between two existing nodes.
  LinkId add_link(NodeId a, NodeId b);

  /// Validates tree invariants and freezes the topology. Throws
  /// InvalidArgument when the graph is not a machine-leaf tree.
  void finalize();

  bool finalized() const { return finalized_; }

  // ---- basic queries ----

  std::int32_t node_count() const {
    return static_cast<std::int32_t>(kinds_.size());
  }
  std::int32_t switch_count() const { return switch_count_; }
  std::int32_t machine_count() const {
    return static_cast<std::int32_t>(machine_ids_.size());
  }
  std::int32_t link_count() const {
    return static_cast<std::int32_t>(link_endpoints_.size());
  }
  std::int32_t directed_edge_count() const { return 2 * link_count(); }

  NodeKind kind(NodeId node) const;
  bool is_machine(NodeId node) const {
    return kind(node) == NodeKind::kMachine;
  }
  const std::string& name(NodeId node) const;
  /// O(nodes) scan by name.
  std::optional<NodeId> find_node(std::string_view name) const;

  /// Machines in rank order.
  const std::vector<NodeId>& machines() const { return machine_ids_; }
  NodeId machine_node(Rank rank) const;
  Rank rank_of(NodeId machine) const;

  /// Neighbors in link-insertion order. Requires a finalized topology.
  std::span<const NodeId> neighbors(NodeId node) const;

  // ---- links and directed edges ----

  /// Endpoints of a physical link as stored (a, b).
  std::pair<NodeId, NodeId> link_endpoints(LinkId link) const;

  /// Directed edge from `from` to `to`; the nodes must be adjacent.
  /// Requires a finalized topology; O(degree(from)).
  EdgeId edge_between(NodeId from, NodeId to) const;

  NodeId edge_source(EdgeId edge) const;
  NodeId edge_target(EdgeId edge) const;
  LinkId edge_link(EdgeId edge) const { return edge / 2; }
  /// The same link traversed in the opposite direction.
  EdgeId reverse(EdgeId edge) const { return edge ^ 1; }

  // ---- tree structure / paths ----

  /// Parent of `node` in the internal rooting (root's parent is
  /// kInvalidNode). The rooting is an implementation detail; exposed for
  /// traversals that only need *some* consistent rooting.
  NodeId parent(NodeId node) const;
  std::int32_t depth(NodeId node) const;

  /// Unique tree path from u to v as directed edges (paper: path(u,v)).
  /// Empty when u == v.
  std::vector<EdgeId> path(NodeId u, NodeId v) const;

  /// Allocation-free variant of path(): resizes `out` to the path
  /// length and fills it in place (hot-path use by the simulator).
  void path_into(NodeId u, NodeId v, std::vector<EdgeId>& out) const;

  /// Number of edges on path(u, v).
  std::int32_t path_length(NodeId u, NodeId v) const;

  /// Lowest common ancestor under the internal rooting.
  NodeId lowest_common_ancestor(NodeId u, NodeId v) const;

  /// True if the unique paths u1→v1 and u2→v2 share a directed edge
  /// (the paper's definition of message contention).
  bool paths_share_edge(NodeId u1, NodeId v1, NodeId u2, NodeId v2) const;

  // ---- AAPC load analysis (§3) ----

  /// Machines in the component containing `side` after removing `link`.
  /// O(1) (Euler-interval ancestor test against the internal rooting).
  std::int32_t machines_on_side(LinkId link, NodeId side) const;

  /// Machines in the component containing `neighbor` after removing
  /// `node`; the nodes must be adjacent. O(1) via the rooted subtree
  /// counts — the workhorse of large-scale decomposition (a BFS per
  /// branch would make the §4.1 root walk quadratic on deep trees).
  std::int32_t machines_beyond(NodeId node, NodeId neighbor) const;

  /// True when `ancestor` lies on the path from `node` to the internal
  /// root (inclusive). O(1) via Euler intervals.
  bool is_ancestor(NodeId ancestor, NodeId node) const;

  /// AAPC load of a link: |Mu| × |Mv| for the two components.
  std::int64_t aapc_link_load(LinkId link) const;

  /// Load of the AAPC pattern = max link load (§3). Requires |M| >= 2.
  std::int64_t aapc_load() const;

  /// Some link achieving aapc_load().
  LinkId bottleneck_link() const;

  /// Peak aggregate AAPC throughput bound (§3, in bytes/sec):
  ///   |M| × (|M|−1) × B / aapc_load()
  /// where B is the uniform link bandwidth in bytes/sec.
  double peak_aggregate_throughput(double link_bandwidth_bytes_per_sec) const;

 private:
  void require_finalized() const;
  void require_not_finalized() const;
  void require_valid_node(NodeId node) const;

  std::vector<NodeKind> kinds_;
  std::vector<std::string> names_;
  std::vector<std::pair<NodeId, NodeId>> link_endpoints_;
  std::vector<NodeId> machine_ids_;         // rank -> node
  std::vector<Rank> rank_of_node_;          // node -> rank or -1
  std::int32_t switch_count_ = 0;

  // Populated by finalize().
  bool finalized_ = false;
  /// CSR adjacency: node n's neighbors are adj_nodes_[adj_begin_[n] ..
  /// adj_begin_[n + 1]), and adj_links_[i] is the link to adj_nodes_[i].
  std::vector<std::int32_t> adj_begin_;
  std::vector<NodeId> adj_nodes_;
  std::vector<LinkId> adj_links_;
  std::vector<NodeId> parent_;
  std::vector<EdgeId> parent_edge_;         // edge node -> parent
  std::vector<std::int32_t> depth_;
  std::vector<std::int32_t> subtree_machines_;  // under internal rooting
  /// Euler-tour entry/exit indices: u is an ancestor of v iff
  /// tour_in_[u] <= tour_in_[v] < tour_out_[u]. Makes the per-link
  /// component queries O(1) (they were O(depth) ancestor walks, which
  /// turned aapc_load into O(links * depth) — quadratic on chains).
  std::vector<std::int32_t> tour_in_;
  std::vector<std::int32_t> tour_out_;
};

}  // namespace aapc::topology
