// Tests for the spanning tree election (the §3 substrate assumption).
#include <gtest/gtest.h>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/stp/stp.hpp"

namespace aapc::stp {
namespace {

TEST(StpTest, RootIsLowestBridgeId) {
  BridgeNetwork net;
  const BridgeId a = net.add_bridge("a", 300);
  const BridgeId b = net.add_bridge("b", 100);
  const BridgeId c = net.add_bridge("c", 200);
  net.add_bridge_link(a, b);
  net.add_bridge_link(b, c);
  net.add_machine("m0", a);
  net.add_machine("m1", c);
  const SpanningTree tree = compute_spanning_tree(net);
  EXPECT_EQ(tree.root_bridge, b);
}

TEST(StpTest, RingBlocksExactlyOneLink) {
  BridgeNetwork net;
  const BridgeId a = net.add_bridge("a", 1);
  const BridgeId b = net.add_bridge("b", 2);
  const BridgeId c = net.add_bridge("c", 3);
  net.add_bridge_link(a, b, 19);
  net.add_bridge_link(b, c, 19);
  net.add_bridge_link(c, a, 19);
  net.add_machine("m0", a);
  net.add_machine("m1", b);
  net.add_machine("m2", c);
  const SpanningTree tree = compute_spanning_tree(net);
  std::int32_t forwarding = 0;
  for (const bool f : tree.forwarding) forwarding += f ? 1 : 0;
  EXPECT_EQ(forwarding, 2);
  // The blocked link is b-c (both reach the root a directly).
  EXPECT_TRUE(tree.forwarding[0]);
  EXPECT_FALSE(tree.forwarding[1]);
  EXPECT_TRUE(tree.forwarding[2]);
  EXPECT_EQ(tree.topology.switch_count(), 3);
  EXPECT_EQ(tree.topology.machine_count(), 3);
  EXPECT_EQ(tree.topology.link_count(), 5);  // 2 bridge + 3 machine links
}

TEST(StpTest, ParallelLinksKeepOne) {
  BridgeNetwork net;
  const BridgeId a = net.add_bridge("a", 1);
  const BridgeId b = net.add_bridge("b", 2);
  net.add_bridge_link(a, b, 19);
  net.add_bridge_link(a, b, 19);  // redundant uplink
  net.add_machine("m0", a);
  net.add_machine("m1", b);
  const SpanningTree tree = compute_spanning_tree(net);
  EXPECT_NE(tree.forwarding[0], tree.forwarding[1]);
  // The lower link id wins the tie.
  EXPECT_TRUE(tree.forwarding[0]);
}

TEST(StpTest, CostsSteerTheTree) {
  // Square a-b-d-c-a; direct a-d link is expensive. d must reach the
  // root a through b (cheapest), not through the expensive direct link.
  BridgeNetwork net;
  const BridgeId a = net.add_bridge("a", 1);
  const BridgeId b = net.add_bridge("b", 2);
  const BridgeId c = net.add_bridge("c", 3);
  const BridgeId d = net.add_bridge("d", 4);
  const std::int32_t ab = net.add_bridge_link(a, b, 4);
  const std::int32_t bd = net.add_bridge_link(b, d, 4);
  const std::int32_t ac = net.add_bridge_link(a, c, 19);
  const std::int32_t cd = net.add_bridge_link(c, d, 19);
  const std::int32_t ad = net.add_bridge_link(a, d, 100);
  net.add_machine("m0", a);
  net.add_machine("m1", d);
  const SpanningTree tree = compute_spanning_tree(net);
  EXPECT_TRUE(tree.forwarding[ab]);
  EXPECT_TRUE(tree.forwarding[bd]);
  EXPECT_TRUE(tree.forwarding[ac]);   // c's root port
  EXPECT_FALSE(tree.forwarding[cd]);
  EXPECT_FALSE(tree.forwarding[ad]);
  EXPECT_EQ(tree.root_path_cost[d], 8);
}

TEST(StpTest, TieBreaksOnNeighborBridgeId) {
  // d reaches the root a at equal cost via b (id 2) or c (id 3): the
  // 802.1D tie-break picks the lower sender bridge id, b.
  BridgeNetwork net;
  const BridgeId a = net.add_bridge("a", 1);
  const BridgeId b = net.add_bridge("b", 2);
  const BridgeId c = net.add_bridge("c", 3);
  const BridgeId d = net.add_bridge("d", 4);
  net.add_bridge_link(a, b, 10);
  net.add_bridge_link(a, c, 10);
  const std::int32_t db = net.add_bridge_link(d, b, 10);
  const std::int32_t dc = net.add_bridge_link(d, c, 10);
  net.add_machine("m0", a);
  net.add_machine("m1", d);
  const SpanningTree tree = compute_spanning_tree(net);
  EXPECT_TRUE(tree.forwarding[db]);
  EXPECT_FALSE(tree.forwarding[dc]);
}

TEST(StpTest, DisconnectedBridgeRejected) {
  BridgeNetwork net;
  net.add_bridge("a", 1);
  net.add_bridge("b", 2);
  net.add_machine("m0", 0);
  net.add_machine("m1", 1);
  EXPECT_THROW(compute_spanning_tree(net), aapc::InvalidArgument);
}

TEST(StpTest, DuplicateBridgeIdRejected) {
  BridgeNetwork net;
  net.add_bridge("a", 7);
  EXPECT_THROW(net.add_bridge("b", 7), aapc::InvalidArgument);
}

TEST(StpTest, InvalidLinksRejected) {
  BridgeNetwork net;
  const BridgeId a = net.add_bridge("a", 1);
  EXPECT_THROW(net.add_bridge_link(a, a), aapc::InvalidArgument);
  EXPECT_THROW(net.add_bridge_link(a, 5), aapc::InvalidArgument);
  EXPECT_THROW(net.add_machine("m", 9), aapc::InvalidArgument);
}

TEST(StpTest, ElectedTreeFeedsTheScheduler) {
  // End to end: redundant mesh of 4 switches, 3 machines each -> STP
  // tree -> optimal contention-free schedule.
  BridgeNetwork net;
  std::vector<BridgeId> bridges;
  for (int i = 0; i < 4; ++i) {
    bridges.push_back(net.add_bridge(str_cat("sw", i),
                                     static_cast<std::uint64_t>(i + 1)));
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      net.add_bridge_link(bridges[i], bridges[j], 19);  // full mesh
    }
  }
  for (int i = 0; i < 4; ++i) {
    for (int m = 0; m < 3; ++m) {
      net.add_machine(str_cat("n", 3 * i + m), bridges[i]);
    }
  }
  const SpanningTree tree = compute_spanning_tree(net);
  // Full mesh on the root: every other bridge hangs directly off it.
  EXPECT_EQ(tree.root_bridge, 0);
  const core::Schedule schedule = core::build_aapc_schedule(tree.topology);
  const core::VerifyReport report =
      core::verify_schedule(tree.topology, schedule);
  EXPECT_TRUE(report.ok) << report.summary();
}

}  // namespace
}  // namespace aapc::stp
