// Tests for the .topo text format (input of the routine generator).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/units.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

namespace aapc::topology {
namespace {

TEST(TopologyIoTest, ParsesBasicCluster) {
  const Topology topo = parse_topology(R"(
    # two switches, three machines
    switch s0
    switch s1
    link s0 s1
    machine n0 s0
    machine n1 s0
    machine n2 s1
  )");
  EXPECT_EQ(topo.machine_count(), 3);
  EXPECT_EQ(topo.switch_count(), 2);
  EXPECT_EQ(topo.aapc_load(), 2);
}

TEST(TopologyIoTest, MachineShorthandEqualsExplicitLink) {
  const Topology a = parse_topology("switch s0\nmachine n0 s0\nmachine n1 s0\n");
  const Topology b = parse_topology(
      "switch s0\nmachine n0\nmachine n1\nlink n0 s0\nlink n1 s0\n");
  EXPECT_EQ(serialize_topology(a), serialize_topology(b));
}

TEST(TopologyIoTest, CommentsAndBlankLinesIgnored) {
  const Topology topo = parse_topology(
      "\n# header\nswitch s0  # trailing\n\nmachine n0 s0\nmachine n1 s0\n");
  EXPECT_EQ(topo.machine_count(), 2);
}

TEST(TopologyIoTest, ErrorsCarryLineNumbers) {
  try {
    parse_topology("switch s0\nbogus n0\n");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TopologyIoTest, UnknownNodeInLink) {
  EXPECT_THROW(parse_topology("switch s0\nlink s0 s9\nmachine n0 s0\n"),
               InvalidArgument);
}

TEST(TopologyIoTest, DuplicateNameRejected) {
  EXPECT_THROW(parse_topology("switch s0\nswitch s0\n"), InvalidArgument);
}

TEST(TopologyIoTest, LinksMayPrecedeDefinitionsViaTwoPass) {
  // Links resolve after all nodes parse, so forward references work.
  const Topology topo = parse_topology(
      "link n0 s0\nswitch s0\nmachine n0\nmachine n1 s0\n");
  EXPECT_EQ(topo.machine_count(), 2);
}

TEST(TopologyIoTest, RoundTripPaperTopologies) {
  for (const Topology& original :
       {make_paper_topology_a(), make_paper_topology_b(),
        make_paper_topology_c(), make_paper_figure1()}) {
    const Topology reparsed = parse_topology(serialize_topology(original));
    EXPECT_EQ(reparsed.machine_count(), original.machine_count());
    EXPECT_EQ(reparsed.switch_count(), original.switch_count());
    EXPECT_EQ(reparsed.aapc_load(), original.aapc_load());
    EXPECT_EQ(serialize_topology(reparsed), serialize_topology(original));
  }
}

TEST(TopologyIoTest, DescribeMentionsBottleneckAndPeak) {
  const std::string text =
      describe_topology(make_paper_topology_c(), mbps_to_bytes_per_sec(100));
  EXPECT_NE(text.find("bottleneck"), std::string::npos);
  EXPECT_NE(text.find("256"), std::string::npos);
  EXPECT_NE(text.find("387.5"), std::string::npos);
}

TEST(TopologyIoTest, MissingFileThrows) {
  EXPECT_THROW(load_topology_file("/nonexistent/file.topo"), InvalidArgument);
}

// ---- differential test against the reference parser ----

/// The line-splitting parser parse_topology replaced (split into
/// std::string lines and tokens, names in a std::map), kept verbatim as
/// the reference: the one-pass parser must accept and reject exactly
/// the same texts, with the same messages, into the same topology.
Topology reference_parse_topology(std::string_view text) {
  Topology topo;
  std::map<std::string, NodeId> by_name;
  struct PendingLink {
    std::string a;
    std::string b;
    int line;
  };
  std::vector<PendingLink> links;

  auto lookup = [&](const std::string& name, int line) -> NodeId {
    const auto it = by_name.find(name);
    AAPC_REQUIRE(it != by_name.end(),
                 "line " << line << ": unknown node '" << name << "'");
    return it->second;
  };

  int line_number = 0;
  for (const std::string& raw_line : split(text, '\n')) {
    ++line_number;
    std::string line = raw_line;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const std::vector<std::string> tokens = split_whitespace(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    if (directive == "switch") {
      AAPC_REQUIRE(tokens.size() == 2,
                   "line " << line_number << ": usage: switch <name>");
      AAPC_REQUIRE(by_name.count(tokens[1]) == 0,
                   "line " << line_number << ": duplicate node '" << tokens[1]
                           << "'");
      by_name[tokens[1]] = topo.add_switch(tokens[1]);
    } else if (directive == "machine") {
      AAPC_REQUIRE(tokens.size() == 2 || tokens.size() == 3,
                   "line " << line_number
                           << ": usage: machine <name> [<switch>]");
      AAPC_REQUIRE(by_name.count(tokens[1]) == 0,
                   "line " << line_number << ": duplicate node '" << tokens[1]
                           << "'");
      by_name[tokens[1]] = topo.add_machine(tokens[1]);
      if (tokens.size() == 3) {
        links.push_back({tokens[1], tokens[2], line_number});
      }
    } else if (directive == "link") {
      AAPC_REQUIRE(tokens.size() == 3,
                   "line " << line_number << ": usage: link <a> <b>");
      links.push_back({tokens[1], tokens[2], line_number});
    } else {
      throw InvalidArgument(str_cat("line ", line_number,
                                    ": unknown directive '", directive, "'"));
    }
  }
  for (const PendingLink& link : links) {
    topo.add_link(lookup(link.a, link.line), lookup(link.b, link.line));
  }
  topo.finalize();
  return topo;
}

/// What a parser made of a text: the serialized topology, or the type
/// and message of the error it threw.
template <typename Parse>
std::string outcome(Parse parse, std::string_view text) {
  try {
    return "ok\n" + serialize_topology(parse(text));
  } catch (const Error& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

void expect_same_as_reference(std::string_view text) {
  EXPECT_EQ(outcome(parse_topology, text),
            outcome(reference_parse_topology, text))
      << "input:\n" << text;
}

/// The same physical cluster under a fresh node and link order.
Topology shuffled_copy(const Topology& topo, Rng& rng) {
  std::vector<NodeId> order(static_cast<std::size_t>(topo.node_count()));
  for (NodeId v = 0; v < topo.node_count(); ++v) {
    order[static_cast<std::size_t>(v)] = v;
  }
  rng.shuffle(order);
  Topology out;
  std::vector<NodeId> new_id(order.size());
  for (const NodeId old : order) {
    new_id[static_cast<std::size_t>(old)] =
        topo.is_machine(old) ? out.add_machine() : out.add_switch();
  }
  std::vector<LinkId> links(static_cast<std::size_t>(topo.link_count()));
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    links[static_cast<std::size_t>(l)] = l;
  }
  rng.shuffle(links);
  for (const LinkId l : links) {
    const auto [a, b] = topo.link_endpoints(l);
    out.add_link(new_id[static_cast<std::size_t>(a)],
                 new_id[static_cast<std::size_t>(b)]);
  }
  out.finalize();
  return out;
}

/// `text` with every separator replaced by a random run of the
/// whitespace std::isspace accepts in the C locale, some lines ended by
/// "\r\n" or a comment, and the final newline sometimes dropped.
std::string respaced(std::string_view text, Rng& rng) {
  constexpr char kBlanks[] = " \t\v\f\r";
  std::string out;
  for (const char c : text) {
    if (c == ' ') {
      const auto run = rng.next_in(1, 3);
      for (std::int64_t i = 0; i < run; ++i) {
        out.push_back(kBlanks[rng.next_below(sizeof(kBlanks) - 1)]);
      }
    } else if (c == '\n' && rng.next_below(3) == 0) {
      out += rng.next_below(2) == 0 ? "\r\n" : "\t# note link x y\n";
    } else {
      out.push_back(c);
    }
  }
  if (!out.empty() && out.back() == '\n' && rng.next_below(2) == 0) {
    out.pop_back();
  }
  return out;
}

TEST(TopologyIoDifferentialTest, GeneratedClustersUnderShuffles) {
  Rng rng(2025);
  std::vector<Topology> clusters = {
      make_paper_topology_a(), make_paper_topology_b(),
      make_paper_topology_c(), make_paper_figure1(), make_fat_tree(4, 4, 16)};
  for (int i = 0; i < 4; ++i) {
    RandomLanOptions options;
    options.switches = 4 + 4 * i;
    options.machines = 16 + 24 * i;
    clusters.push_back(make_random_lan(rng, options));
  }
  for (const Topology& cluster : clusters) {
    for (int round = 0; round < 3; ++round) {
      const std::string text = serialize_topology(shuffled_copy(cluster, rng));
      expect_same_as_reference(text);
      expect_same_as_reference(respaced(text, rng));
    }
  }
}

TEST(TopologyIoDifferentialTest, FuzzGrammarTexts) {
  // fuzz_test's grammar-weighted alphabet, plus \r, \v and \f.
  constexpr char kAlphabet[] =
      "switch machine link s0 n1 {}[],:\"0123456789\n\t #-\r\v\f";
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed * 1337 + 1);
    for (int round = 0; round < 200; ++round) {
      std::string text;
      const auto length = rng.next_in(0, 200);
      for (std::int64_t i = 0; i < length; ++i) {
        text.push_back(kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)]);
      }
      expect_same_as_reference(text);
    }
  }
}

TEST(TopologyIoDifferentialTest, RandomDirectiveLines) {
  // Whole directive lines over a small name pool, so texts reach the
  // link-resolution and finalize() errors as well as acceptance.
  constexpr const char* kNames[] = {"s0", "s1", "s2", "n0", "n1", "n2", "n3"};
  constexpr const char* kDirectives[] = {"switch", "machine", "link"};
  Rng rng(77);
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string text;
    const auto lines = rng.next_in(1, 10);
    for (std::int64_t l = 0; l < lines; ++l) {
      text += kDirectives[rng.next_below(3)];
      const auto operands = rng.next_in(0, 3);
      for (std::int64_t o = 0; o < operands; ++o) {
        text += ' ';
        text += kNames[rng.next_below(7)];
      }
      text += '\n';
    }
    accepted += outcome(parse_topology, text).starts_with("ok\n") ? 1 : 0;
    expect_same_as_reference(text);
  }
  EXPECT_GT(accepted, 0);
}

TEST(TopologyIoDifferentialTest, HandCases) {
  for (const char* text : {
           "switch\ts0\nmachine\tn0\ts0\nmachine n1\t\ts0\n",
           "switch s0\r\nmachine n0 s0\r\nmachine n1 s0\r\n",
           "switch\vs0\fmachine n0 s0\n",
           "switch s0\vx\nmachine n0 s0\nmachine n1 s0\n",
           "\fswitch s0\v\nmachine n0 s0\nmachine n1 s0",
           "switch s0\nmachine n0 s0\nmachine n1 s0 # no newline",
           "# only\n   # comments\n\t#\n",
           "switch s0#glued\nmachine n0 s0#\nmachine n1 s0\n",
           "",
           "\n\n\n",
           "switch s0 s1 s2\n",
           "machine n0 s0 s1 s2\n",
           "link a b c d\n",
           "switch s0\nmachine n0 s0\nmachine n1 s9\n",
           "switch s0\nmachine n0\nlink n0 s0\nlink x y\n",
           "switch s0\nmachine n0 s0\nlink s0 s0\n",
           "switch s0\nswitch S0\nmachine n0 s0\nmachine n1 S0\nlink s0 S0\n",
           "switch s0\nswitch s0\n",
           "machine n0\n",
           "switch s0\nswitch s1\nmachine n0 s0\nmachine n1 s0\n",
           "switch \xc3\xa9\nmachine n0 \xc3\xa9\nmachine n1 \xc3\xa9\n",
       }) {
    expect_same_as_reference(text);
  }
  // An embedded NUL is an ordinary name byte.
  using namespace std::string_view_literals;
  expect_same_as_reference(
      "switch s\0x\nmachine n0 s\0x\nmachine n1 s\0x\n"sv);
}

}  // namespace
}  // namespace aapc::topology
