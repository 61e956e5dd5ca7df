// Property tests for topology canonicalization (service/canonical.hpp):
// relabeling invariance of the canonical form and hash, correctness of
// the induced rank permutation (a cached schedule rewritten through it
// stays contention-free and optimal), and distinctness on a corpus of
// non-isomorphic trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/service/canonical.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

namespace aapc::service {
namespace {

using topology::NodeId;
using topology::Rank;
using topology::Topology;

/// Rebuilds `topo` with nodes inserted in a random order and links in a
/// random order: the same physical cluster under a fresh labeling of
/// ranks, switch ids, and insertion sequence. Returns the relabeled
/// topology and `rank_map` with rank_map[old rank] = new rank.
Topology random_relabel(const Topology& topo, Rng& rng,
                        std::vector<Rank>* rank_map) {
  const std::int32_t n = topo.node_count();
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);

  Topology out;
  std::vector<NodeId> new_id(static_cast<std::size_t>(n));
  rank_map->assign(static_cast<std::size_t>(topo.machine_count()), -1);
  Rank next_rank = 0;
  for (const NodeId old : order) {
    if (topo.is_machine(old)) {
      new_id[static_cast<std::size_t>(old)] = out.add_machine();
      (*rank_map)[static_cast<std::size_t>(topo.rank_of(old))] = next_rank++;
    } else {
      new_id[static_cast<std::size_t>(old)] = out.add_switch();
    }
  }
  std::vector<topology::LinkId> links(
      static_cast<std::size_t>(topo.link_count()));
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    links[static_cast<std::size_t>(l)] = l;
  }
  rng.shuffle(links);
  for (const topology::LinkId l : links) {
    const auto [a, b] = topo.link_endpoints(l);
    out.add_link(new_id[static_cast<std::size_t>(a)],
                 new_id[static_cast<std::size_t>(b)]);
  }
  out.finalize();
  return out;
}

TEST(CanonicalTest, PaperTopologiesRoundTrip) {
  for (const Topology& topo :
       {topology::make_paper_topology_a(), topology::make_paper_topology_b(),
        topology::make_paper_topology_c(), topology::make_paper_figure1()}) {
    const Canonicalization canon = canonicalize(topo);
    EXPECT_EQ(canon.hash, canonical_hash(canon.canonical_form));
    const Topology rebuilt = build_canonical_topology(canon.canonical_form);
    EXPECT_EQ(rebuilt.machine_count(), topo.machine_count());
    EXPECT_EQ(rebuilt.switch_count(), topo.switch_count());
    EXPECT_EQ(rebuilt.link_count(), topo.link_count());
    // The rebuilt topology canonicalizes to the same form with the
    // identity permutation (it *is* the canonical labeling).
    const Canonicalization again = canonicalize(rebuilt);
    EXPECT_EQ(again.canonical_form, canon.canonical_form);
    for (Rank r = 0; r < rebuilt.machine_count(); ++r) {
      EXPECT_EQ(again.to_canonical[static_cast<std::size_t>(r)], r);
    }
    // Isomorphism invariants carry over.
    EXPECT_EQ(rebuilt.aapc_load(), topo.aapc_load());
  }
}

/// FNV-1a 64 over the values of an id vector.
template <typename Id>
std::uint64_t digest(const std::vector<Id>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Id id : ids) {
    h = (h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(id))) *
        0x100000001b3ull;
  }
  return h;
}

TEST(CanonicalTest, FatTree256Pinned) {
  // Pinned bytes of the 256-host make_fat_tree(4,4,16): its canonical
  // hash (the cache key), and the permutations of one fixed relabeling
  // of it read back through parse_topology, recorded before Topology's
  // adjacency became CSR arrays and the parser a one-pass scan. The
  // schedule bytes of the same cluster are pinned in schedule_io_test.
  const Topology fat = topology::make_fat_tree(4, 4, 16);
  const Canonicalization canon = canonicalize(fat);
  EXPECT_EQ(canon.hash, 0xcaa7a8c44344b99dull);
  EXPECT_EQ(canon.canonical_form.size(), 319u);
  Rng rng(15);
  std::vector<Rank> rank_map;
  const Topology relabeled = topology::parse_topology(
      topology::serialize_topology(random_relabel(fat, rng, &rank_map)));
  const Canonicalization again = canonicalize(relabeled);
  EXPECT_EQ(again.hash, canon.hash);
  EXPECT_EQ(again.canonical_form, canon.canonical_form);
  EXPECT_EQ(digest(canon.to_canonical), 0x4242dc5249c33625ull);
  EXPECT_EQ(digest(again.to_canonical), 0x67c2783bba480b9bull);
  EXPECT_EQ(digest(again.link_to_canonical), 0x75f55a08f87b754full);
}

TEST(CanonicalTest, TinyTopologies) {
  // Two machines on one switch.
  Topology two_on_switch;
  {
    const NodeId s = two_on_switch.add_switch();
    two_on_switch.add_link(s, two_on_switch.add_machine());
    two_on_switch.add_link(s, two_on_switch.add_machine());
    two_on_switch.finalize();
  }
  // Two machines linked directly (machines are still leaves).
  Topology two_direct;
  {
    const NodeId a = two_direct.add_machine();
    const NodeId b = two_direct.add_machine();
    two_direct.add_link(a, b);
    two_direct.finalize();
  }
  const Canonicalization on_switch = canonicalize(two_on_switch);
  const Canonicalization direct = canonicalize(two_direct);
  EXPECT_NE(on_switch.canonical_form, direct.canonical_form);
  for (const Canonicalization& canon : {on_switch, direct}) {
    const Topology rebuilt = build_canonical_topology(canon.canonical_form);
    EXPECT_EQ(rebuilt.machine_count(), 2);
    EXPECT_EQ(canonicalize(rebuilt).canonical_form, canon.canonical_form);
  }
}

class CanonicalRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CanonicalRandomTest, RelabelingInvariance) {
  Rng rng(GetParam() * 104729 + 7);
  topology::RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(1, 8));
  options.machines = static_cast<std::int32_t>(rng.next_in(2, 20));
  options.max_switch_degree = static_cast<std::int32_t>(rng.next_in(1, 4));
  const Topology topo = topology::make_random_tree(rng, options);
  const Canonicalization canon = canonicalize(topo);

  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Rank> rank_map;
    const Topology relabeled = random_relabel(topo, rng, &rank_map);
    const Canonicalization relabeled_canon = canonicalize(relabeled);
    // Identical canonical identity under any relabeling.
    EXPECT_EQ(relabeled_canon.canonical_form, canon.canonical_form);
    EXPECT_EQ(relabeled_canon.hash, canon.hash);
  }
}

TEST_P(CanonicalRandomTest, PermutationRewritesSchedules) {
  Rng rng(GetParam() * 7919 + 3);
  topology::RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(1, 6));
  options.machines = static_cast<std::int32_t>(rng.next_in(3, 14));
  const Topology topo = topology::make_random_tree(rng, options);
  const Canonicalization canon = canonicalize(topo);
  const Topology canonical_topo =
      build_canonical_topology(canon.canonical_form);

  // Compile once on the canonical topology — the service's cache path.
  const core::Schedule canonical_schedule =
      core::build_aapc_schedule(canonical_topo);

  // Rewriting into the caller's labeling preserves the Theorem: full
  // coverage, contention-free phases, optimal phase count — on the
  // *caller's* tree.
  const std::vector<Rank> from_canonical =
      core::invert_permutation(canon.to_canonical);
  const core::Schedule rewritten =
      core::relabel_schedule(canonical_schedule, from_canonical);
  const core::VerifyReport report = core::verify_schedule(topo, rewritten);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_NO_THROW(core::require_contention_free(topo, rewritten));
  EXPECT_EQ(rewritten.phase_count(), topo.aapc_load());

  // Round trip: mapping back through the inverse permutation restores
  // the canonical schedule phase by phase.
  const core::Schedule round_trip =
      core::relabel_schedule(rewritten, canon.to_canonical);
  ASSERT_EQ(round_trip.phase_count(), canonical_schedule.phase_count());
  EXPECT_EQ(round_trip.phase_begin, canonical_schedule.phase_begin);
  EXPECT_EQ(round_trip.messages, canonical_schedule.messages);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalRandomTest,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(CanonicalTest, NonIsomorphicCorpusDistinct) {
  // A fixed corpus of pairwise non-isomorphic trees: every pair must
  // produce distinct canonical forms (and, on this corpus, distinct
  // hashes — FNV-1a collisions at 64 bits would be astonishing here).
  std::vector<Topology> corpus;
  corpus.push_back(topology::make_single_switch(2));
  corpus.push_back(topology::make_single_switch(3));
  corpus.push_back(topology::make_single_switch(8));
  // Note: make_star({a, b, ...}) puts `a` machines on the hub itself, so
  // star({4,4}) and chain({4,4}) are the same tree — the corpus below
  // avoids such coincidences (and the paper clusters b and c, which are
  // star({8,8,8,8}) and chain({8,8,8,8})).
  corpus.push_back(topology::make_star({4, 4}));
  corpus.push_back(topology::make_star({4, 4, 4}));
  corpus.push_back(topology::make_star({8, 8, 8}));
  corpus.push_back(topology::make_star({1, 3, 4}));
  corpus.push_back(topology::make_star({2, 2, 4}));
  corpus.push_back(topology::make_chain({4, 5}));
  corpus.push_back(topology::make_chain({4, 0, 4}));
  corpus.push_back(topology::make_chain({8, 8, 8, 7}));
  corpus.push_back(topology::make_chain({2, 2, 2, 2}));
  corpus.push_back(topology::make_chain({1, 2, 3}));
  corpus.push_back(topology::make_chain({3, 2, 1, 2}));
  corpus.push_back(topology::make_binary_tree(2, 2));
  corpus.push_back(topology::make_binary_tree(3, 1));
  corpus.push_back(topology::make_binary_tree(3, 2));
  corpus.push_back(topology::make_paper_topology_a());
  corpus.push_back(topology::make_paper_topology_b());
  corpus.push_back(topology::make_paper_topology_c());
  corpus.push_back(topology::make_paper_figure1());

  std::set<std::string> forms;
  std::set<std::uint64_t> hashes;
  for (const Topology& topo : corpus) {
    const Canonicalization canon = canonicalize(topo);
    EXPECT_TRUE(forms.insert(canon.canonical_form).second)
        << "duplicate canonical form: " << canon.canonical_form;
    EXPECT_TRUE(hashes.insert(canon.hash).second);
  }
}

TEST(CanonicalTest, StarArmOrderIsIrrelevant) {
  // Same hub, arm switches listed in a different order: isomorphic.
  const Canonicalization a = canonicalize(topology::make_star({2, 5, 9}));
  const Canonicalization b = canonicalize(topology::make_star({2, 9, 5}));
  EXPECT_EQ(a.canonical_form, b.canonical_form);
  EXPECT_EQ(a.hash, b.hash);
  // ...but a different arm multiset is not.
  const Canonicalization c = canonicalize(topology::make_star({2, 5, 8}));
  EXPECT_NE(a.canonical_form, c.canonical_form);
}

TEST(CanonicalTest, MalformedFormsRejected) {
  EXPECT_THROW(build_canonical_topology(""), InvalidArgument);
  EXPECT_THROW(build_canonical_topology("X"), InvalidArgument);
  EXPECT_THROW(build_canonical_topology("S(M"), InvalidArgument);
  EXPECT_THROW(build_canonical_topology("S(MM))"), InvalidArgument);
  EXPECT_THROW(build_canonical_topology("S(MM)M"), InvalidArgument);
  // Structurally parseable but not a valid machine-leaf tree (a switch
  // with no machines anywhere).
  EXPECT_THROW(build_canonical_topology("S(S())"), InvalidArgument);
}

}  // namespace
}  // namespace aapc::service
