#include "aapc/topology/io.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/units.hpp"

namespace aapc::topology {

namespace {

/// std::isspace in the C locale: space, \t, \n, \v, \f, \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Open-addressing map from a node name, viewed in the text being
/// parsed, to its id: no name is copied and nothing is allocated per
/// node. Ids are dense in insertion order, as in the Topology built
/// alongside.
class NameIndex {
 public:
  /// Indexes `name` as the next node id; false when it is taken.
  bool insert(std::string_view name) {
    if (2 * (names_.size() + 1) > slots_.size()) {
      slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()),
                    kInvalidNode);
      for (std::size_t id = 0; id < names_.size(); ++id) {
        slots_[slot_of(names_[id])] = static_cast<NodeId>(id);
      }
    }
    NodeId& slot = slots_[slot_of(name)];
    if (slot != kInvalidNode) return false;
    slot = static_cast<NodeId>(names_.size());
    names_.push_back(name);
    return true;
  }

  /// The node named `name`, or kInvalidNode.
  NodeId find(std::string_view name) const {
    return slots_.empty() ? kInvalidNode : slots_[slot_of(name)];
  }

 private:
  /// The slot holding `name`, or the empty slot it would take.
  std::size_t slot_of(std::string_view name) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(name) & mask;
    while (slots_[i] != kInvalidNode && names_[slots_[i]] != name) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<std::string_view> names_;  // by node id
  std::vector<NodeId> slots_;            // power-of-two size
};

}  // namespace

Topology parse_topology(std::string_view text) {
  Topology topo;
  NameIndex nodes;
  // Links may name nodes defined further down, so they resolve after
  // the scan, in file order, once every line has been checked.
  struct PendingLink {
    std::string_view a;
    std::string_view b;
    int line;
  };
  std::vector<PendingLink> links;

  int line_number = 0;
  for (std::size_t begin = 0; begin <= text.size();) {
    const std::size_t newline = std::min(text.find('\n', begin), text.size());
    std::string_view line = text.substr(begin, newline - begin);
    begin = newline + 1;
    ++line_number;
    line = line.substr(0, line.find('#'));
    // Every usage takes at most three tokens; more only need counting.
    std::string_view tokens[3];
    std::size_t count = 0;
    for (std::size_t i = 0;;) {
      while (i < line.size() && is_space(line[i])) ++i;
      if (i == line.size()) break;
      const std::size_t start = i;
      while (i < line.size() && !is_space(line[i])) ++i;
      if (count < 3) tokens[count] = line.substr(start, i - start);
      ++count;
    }
    if (count == 0) continue;
    const std::string_view directive = tokens[0];
    if (directive == "switch") {
      AAPC_REQUIRE(count == 2,
                   "line " << line_number << ": usage: switch <name>");
      AAPC_REQUIRE(nodes.insert(tokens[1]),
                   "line " << line_number << ": duplicate node '" << tokens[1]
                           << "'");
      topo.add_switch(std::string(tokens[1]));
    } else if (directive == "machine") {
      AAPC_REQUIRE(count == 2 || count == 3,
                   "line " << line_number
                           << ": usage: machine <name> [<switch>]");
      AAPC_REQUIRE(nodes.insert(tokens[1]),
                   "line " << line_number << ": duplicate node '" << tokens[1]
                           << "'");
      topo.add_machine(std::string(tokens[1]));
      if (count == 3) links.push_back({tokens[1], tokens[2], line_number});
    } else if (directive == "link") {
      AAPC_REQUIRE(count == 3,
                   "line " << line_number << ": usage: link <a> <b>");
      links.push_back({tokens[1], tokens[2], line_number});
    } else {
      throw InvalidArgument(str_cat("line ", line_number,
                                    ": unknown directive '", directive, "'"));
    }
  }

  auto lookup = [&](std::string_view name, int line) {
    const NodeId node = nodes.find(name);
    AAPC_REQUIRE(node != kInvalidNode,
                 "line " << line << ": unknown node '" << name << "'");
    return node;
  };
  for (const PendingLink& link : links) {
    // The second endpoint resolves first: with both undefined, the
    // error names the second (docs/FORMATS.md §1).
    const NodeId b = lookup(link.b, link.line);
    topo.add_link(lookup(link.a, link.line), b);
  }
  topo.finalize();
  return topo;
}

Topology load_topology_file(const std::string& path) {
  std::ifstream in(path);
  AAPC_REQUIRE(in.good(), "cannot open topology file '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_topology(buffer.str());
}

std::string serialize_topology(const Topology& topo) {
  std::ostringstream os;
  os << "# " << topo.machine_count() << " machines, " << topo.switch_count()
     << " switches\n";
  for (NodeId node = 0; node < topo.node_count(); ++node) {
    if (!topo.is_machine(node)) {
      os << "switch " << topo.name(node) << '\n';
    }
  }
  for (const NodeId machine : topo.machines()) {
    os << "machine " << topo.name(machine) << '\n';
  }
  for (LinkId link = 0; link < topo.link_count(); ++link) {
    const auto [a, b] = topo.link_endpoints(link);
    os << "link " << topo.name(a) << ' ' << topo.name(b) << '\n';
  }
  return os.str();
}

std::string describe_topology(const Topology& topo,
                              double link_bandwidth_bytes_per_sec) {
  std::ostringstream os;
  os << "topology: " << topo.machine_count() << " machines, "
     << topo.switch_count() << " switches, " << topo.link_count()
     << " links\n";
  os << "per-link AAPC loads:\n";
  for (LinkId link = 0; link < topo.link_count(); ++link) {
    const auto [a, b] = topo.link_endpoints(link);
    os << "  (" << topo.name(a) << ", " << topo.name(b)
       << "): " << topo.aapc_link_load(link) << '\n';
  }
  const LinkId bottleneck = topo.bottleneck_link();
  const auto [a, b] = topo.link_endpoints(bottleneck);
  os << "bottleneck: (" << topo.name(a) << ", " << topo.name(b)
     << ") with load " << topo.aapc_load() << '\n';
  os << "peak aggregate AAPC throughput at "
     << format_double(
            bytes_per_sec_to_mbps(link_bandwidth_bytes_per_sec), 0)
     << " Mbps links: "
     << format_double(bytes_per_sec_to_mbps(topo.peak_aggregate_throughput(
                          link_bandwidth_bytes_per_sec)),
                      1)
     << " Mbps\n";
  return os.str();
}

std::string to_dot(const Topology& topo) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  std::ostringstream os;
  os << "graph cluster {\n  graph [rankdir=TB];\n";
  for (NodeId node = 0; node < topo.node_count(); ++node) {
    if (topo.is_machine(node)) {
      os << "  \"" << topo.name(node) << "\" [shape=ellipse];\n";
    } else {
      os << "  \"" << topo.name(node)
         << "\" [shape=box, style=filled, fillcolor=lightgray];\n";
    }
  }
  const std::int64_t bottleneck_load =
      topo.machine_count() >= 2 ? topo.aapc_load() : 0;
  for (LinkId link = 0; link < topo.link_count(); ++link) {
    const auto [a, b] = topo.link_endpoints(link);
    os << "  \"" << topo.name(a) << "\" -- \"" << topo.name(b) << "\"";
    if (topo.machine_count() >= 2) {
      const std::int64_t load = topo.aapc_link_load(link);
      os << " [label=\"" << load << "\"";
      if (load == bottleneck_load) {
        os << ", penwidth=3";
      }
      os << "]";
    }
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace aapc::topology
