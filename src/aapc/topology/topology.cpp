#include "aapc/topology/topology.hpp"

#include <algorithm>
#include <numeric>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::topology {

NodeId Topology::add_switch(std::string name) {
  require_not_finalized();
  const NodeId id = node_count();
  kinds_.push_back(NodeKind::kSwitch);
  names_.push_back(name.empty() ? str_cat("s", switch_count_) : std::move(name));
  rank_of_node_.push_back(-1);
  ++switch_count_;
  return id;
}

NodeId Topology::add_machine(std::string name) {
  require_not_finalized();
  const NodeId id = node_count();
  kinds_.push_back(NodeKind::kMachine);
  names_.push_back(name.empty() ? str_cat("n", machine_ids_.size())
                                : std::move(name));
  rank_of_node_.push_back(static_cast<Rank>(machine_ids_.size()));
  machine_ids_.push_back(id);
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b) {
  require_not_finalized();
  require_valid_node(a);
  require_valid_node(b);
  AAPC_REQUIRE(a != b, "self-link on node " << names_[a]);
  const LinkId id = link_count();
  link_endpoints_.emplace_back(a, b);
  return id;
}

void Topology::finalize() {
  require_not_finalized();
  AAPC_REQUIRE(node_count() >= 1, "empty topology");
  AAPC_REQUIRE(machine_count() >= 1, "topology has no machines");
  AAPC_REQUIRE(link_count() == node_count() - 1,
               "a tree on " << node_count() << " nodes needs "
                            << node_count() - 1 << " links, got "
                            << link_count());

  // CSR adjacency: degrees, then their running sum (each node's end
  // offset), then the links placed back to front with pre-decrement, so
  // every node's neighbors keep link-insertion order and adj_begin_
  // ends up holding the start offsets.
  adj_begin_.assign(static_cast<std::size_t>(node_count()) + 1, 0);
  for (const auto& [a, b] : link_endpoints_) {
    ++adj_begin_[a];
    ++adj_begin_[b];
  }
  std::partial_sum(adj_begin_.begin(), adj_begin_.end(), adj_begin_.begin());
  adj_nodes_.resize(2 * link_endpoints_.size());
  adj_links_.resize(adj_nodes_.size());
  for (LinkId link = link_count(); link-- > 0;) {
    const auto [a, b] = link_endpoints_[link];
    const std::int32_t at_a = --adj_begin_[a];
    adj_nodes_[at_a] = b;
    adj_links_[at_a] = link;
    const std::int32_t at_b = --adj_begin_[b];
    adj_nodes_[at_b] = a;
    adj_links_[at_b] = link;
  }
  for (NodeId node = 0; node < node_count(); ++node) {
    if (kinds_[node] == NodeKind::kMachine) {
      const std::int32_t degree = adj_begin_[node + 1] - adj_begin_[node];
      AAPC_REQUIRE(degree == 1, "machine " << names_[node]
                                           << " must be a leaf with one "
                                           << "link, has " << degree);
    }
  }

  // Root the tree at node 0 and verify connectivity (with |E| = |V|-1,
  // connectivity implies acyclicity).
  parent_.assign(node_count(), kInvalidNode);
  parent_edge_.assign(node_count(), kInvalidEdge);
  depth_.assign(node_count(), 0);
  std::vector<NodeId> order;
  order.reserve(node_count());
  std::vector<char> seen(node_count(), 0);
  order.push_back(0);
  seen[0] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId u = order[head];
    for (std::int32_t i = adj_begin_[u]; i < adj_begin_[u + 1]; ++i) {
      const NodeId v = adj_nodes_[i];
      if (!seen[v]) {
        seen[v] = 1;
        parent_[v] = u;
        // The directed edge v -> u of link L is 2L when v is its stored
        // first endpoint, else 2L + 1.
        const LinkId link = adj_links_[i];
        parent_edge_[v] = link_endpoints_[link].first == v ? 2 * link
                                                            : 2 * link + 1;
        depth_[v] = depth_[u] + 1;
        order.push_back(v);
      }
    }
  }
  AAPC_REQUIRE(order.size() == static_cast<std::size_t>(node_count()),
               "topology is disconnected ("
                   << order.size() << " of " << node_count()
                   << " nodes reachable from " << names_[0] << ")");

  // Machines in each rooted subtree (processed leaf-up via reverse BFS
  // order).
  subtree_machines_.assign(node_count(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    if (kinds_[v] == NodeKind::kMachine) subtree_machines_[v] += 1;
    if (parent_[v] != kInvalidNode) {
      subtree_machines_[parent_[v]] += subtree_machines_[v];
    }
  }

  // Euler intervals via iterative DFS: tour_in_ in preorder, tour_out_
  // when a node's subtree closes. Enables O(1) ancestor tests.
  tour_in_.assign(node_count(), 0);
  tour_out_.assign(node_count(), 0);
  std::int32_t clock = 0;
  // (node, next CSR index)
  std::vector<std::pair<NodeId, std::int32_t>> dfs;
  dfs.emplace_back(0, adj_begin_[0]);
  tour_in_[0] = clock++;
  while (!dfs.empty()) {
    const NodeId u = dfs.back().first;
    std::int32_t next = dfs.back().second;
    NodeId child = kInvalidNode;
    while (next < adj_begin_[u + 1]) {
      const NodeId v = adj_nodes_[next++];
      if (v != parent_[u]) {
        child = v;
        break;
      }
    }
    dfs.back().second = next;
    if (child != kInvalidNode) {
      tour_in_[child] = clock++;
      dfs.emplace_back(child, adj_begin_[child]);
    } else {
      tour_out_[u] = clock;
      dfs.pop_back();
    }
  }
  finalized_ = true;
}

NodeKind Topology::kind(NodeId node) const {
  require_valid_node(node);
  return kinds_[node];
}

const std::string& Topology::name(NodeId node) const {
  require_valid_node(node);
  return names_[node];
}

std::optional<NodeId> Topology::find_node(std::string_view name) const {
  for (NodeId node = 0; node < node_count(); ++node) {
    if (names_[node] == name) return node;
  }
  return std::nullopt;
}

NodeId Topology::machine_node(Rank rank) const {
  AAPC_REQUIRE(rank >= 0 && rank < machine_count(),
               "rank " << rank << " out of range [0," << machine_count()
                       << ")");
  return machine_ids_[rank];
}

Rank Topology::rank_of(NodeId machine) const {
  require_valid_node(machine);
  AAPC_REQUIRE(kinds_[machine] == NodeKind::kMachine,
               names_[machine] << " is not a machine");
  return rank_of_node_[machine];
}

std::span<const NodeId> Topology::neighbors(NodeId node) const {
  require_finalized();
  require_valid_node(node);
  return {adj_nodes_.data() + adj_begin_[node],
          adj_nodes_.data() + adj_begin_[node + 1]};
}

std::pair<NodeId, NodeId> Topology::link_endpoints(LinkId link) const {
  AAPC_REQUIRE(link >= 0 && link < link_count(), "bad link id " << link);
  return link_endpoints_[link];
}

EdgeId Topology::edge_between(NodeId from, NodeId to) const {
  require_finalized();
  require_valid_node(from);
  require_valid_node(to);
  for (std::int32_t i = adj_begin_[from]; i < adj_begin_[from + 1]; ++i) {
    if (adj_nodes_[i] != to) continue;
    const LinkId link = adj_links_[i];
    return (link_endpoints_[link].first == from) ? 2 * link : 2 * link + 1;
  }
  throw InvalidArgument(str_cat("nodes ", names_[from], " and ", names_[to],
                                " are not adjacent"));
}

NodeId Topology::edge_source(EdgeId edge) const {
  AAPC_REQUIRE(edge >= 0 && edge < directed_edge_count(),
               "bad edge id " << edge);
  const auto [a, b] = link_endpoints_[edge / 2];
  return (edge % 2 == 0) ? a : b;
}

NodeId Topology::edge_target(EdgeId edge) const {
  AAPC_REQUIRE(edge >= 0 && edge < directed_edge_count(),
               "bad edge id " << edge);
  const auto [a, b] = link_endpoints_[edge / 2];
  return (edge % 2 == 0) ? b : a;
}

NodeId Topology::parent(NodeId node) const {
  require_finalized();
  require_valid_node(node);
  return parent_[node];
}

std::int32_t Topology::depth(NodeId node) const {
  require_finalized();
  require_valid_node(node);
  return depth_[node];
}

NodeId Topology::lowest_common_ancestor(NodeId u, NodeId v) const {
  require_finalized();
  require_valid_node(u);
  require_valid_node(v);
  while (u != v) {
    if (depth_[u] >= depth_[v]) {
      u = parent_[u];
    } else {
      v = parent_[v];
    }
  }
  return u;
}

std::vector<EdgeId> Topology::path(NodeId u, NodeId v) const {
  std::vector<EdgeId> out;
  path_into(u, v, out);
  return out;
}

void Topology::path_into(NodeId u, NodeId v,
                         std::vector<EdgeId>& out) const {
  require_finalized();
  require_valid_node(u);
  require_valid_node(v);
  // Locate the LCA first so `out` can be sized exactly and filled in
  // place (no temporaries — this runs on the simulator's hot path).
  NodeId a = u;
  NodeId b = v;
  while (depth_[a] > depth_[b]) a = parent_[a];
  while (depth_[b] > depth_[a]) b = parent_[b];
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
  }
  const auto up = static_cast<std::size_t>(depth_[u] - depth_[a]);
  const auto down = static_cast<std::size_t>(depth_[v] - depth_[a]);
  out.resize(up + down);
  a = u;
  for (std::size_t i = 0; i < up; ++i) {
    out[i] = parent_edge_[a];
    a = parent_[a];
  }
  b = v;
  for (std::size_t i = 0; i < down; ++i) {
    out[up + down - 1 - i] = reverse(parent_edge_[b]);
    b = parent_[b];
  }
}

std::int32_t Topology::path_length(NodeId u, NodeId v) const {
  const NodeId lca = lowest_common_ancestor(u, v);
  return (depth_[u] - depth_[lca]) + (depth_[v] - depth_[lca]);
}

bool Topology::paths_share_edge(NodeId u1, NodeId v1, NodeId u2,
                                NodeId v2) const {
  const std::vector<EdgeId> p1 = path(u1, v1);
  const std::vector<EdgeId> p2 = path(u2, v2);
  // Paths on small trees: quadratic scan beats building hash sets.
  for (const EdgeId e1 : p1) {
    for (const EdgeId e2 : p2) {
      if (e1 == e2) return true;
    }
  }
  return false;
}

bool Topology::is_ancestor(NodeId ancestor, NodeId node) const {
  require_finalized();
  require_valid_node(ancestor);
  require_valid_node(node);
  return tour_in_[ancestor] <= tour_in_[node] &&
         tour_in_[node] < tour_out_[ancestor];
}

std::int32_t Topology::machines_beyond(NodeId node, NodeId neighbor) const {
  require_finalized();
  require_valid_node(node);
  require_valid_node(neighbor);
  if (parent_[neighbor] == node) return subtree_machines_[neighbor];
  AAPC_REQUIRE(parent_[node] == neighbor,
               "nodes " << names_[node] << " and " << names_[neighbor]
                        << " are not adjacent");
  return machine_count() - subtree_machines_[node];
}

std::int32_t Topology::machines_on_side(LinkId link, NodeId side) const {
  require_finalized();
  AAPC_REQUIRE(link >= 0 && link < link_count(), "bad link id " << link);
  require_valid_node(side);
  const auto [a, b] = link_endpoints_[link];
  // The child endpoint under the internal rooting owns one component
  // (its rooted subtree); `side` is in it iff child is its ancestor.
  const NodeId child = (parent_[a] == b) ? a : b;
  const std::int32_t child_side = subtree_machines_[child];
  return is_ancestor(child, side) ? child_side
                                  : machine_count() - child_side;
}

std::int64_t Topology::aapc_link_load(LinkId link) const {
  require_finalized();
  const auto [a, b] = link_endpoints_[link];
  const std::int64_t near = machines_on_side(link, a);
  const std::int64_t far = machine_count() - near;
  return near * far;
}

std::int64_t Topology::aapc_load() const {
  require_finalized();
  AAPC_REQUIRE(machine_count() >= 2, "AAPC needs at least two machines");
  std::int64_t best = 0;
  for (LinkId link = 0; link < link_count(); ++link) {
    best = std::max(best, aapc_link_load(link));
  }
  return best;
}

LinkId Topology::bottleneck_link() const {
  require_finalized();
  const std::int64_t load = aapc_load();
  for (LinkId link = 0; link < link_count(); ++link) {
    if (aapc_link_load(link) == load) return link;
  }
  throw InternalError("no bottleneck link found");
}

double Topology::peak_aggregate_throughput(
    double link_bandwidth_bytes_per_sec) const {
  const auto m = static_cast<double>(machine_count());
  return m * (m - 1.0) * link_bandwidth_bytes_per_sec /
         static_cast<double>(aapc_load());
}

void Topology::require_finalized() const {
  AAPC_REQUIRE(finalized_, "topology must be finalized before queries");
}

void Topology::require_not_finalized() const {
  AAPC_REQUIRE(!finalized_, "topology is finalized and immutable");
}

void Topology::require_valid_node(NodeId node) const {
  AAPC_REQUIRE(node >= 0 && node < node_count(), "bad node id " << node);
}

}  // namespace aapc::topology
