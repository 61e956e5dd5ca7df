// Spanning-tree demo: the §3 substrate assumption made concrete.
//
// Ethernet switches block redundant links via the spanning tree
// protocol, which is why the scheduler may assume a tree. This example
// builds a redundantly-wired machine room (a ring of four switches with
// a cross link), runs the 802.1D-style election, shows which links end
// up blocked, and then schedules AAPC on the resulting tree.
//
// Run:  ./stp_demo
#include <iostream>

#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/harness/experiment.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/topology/io.hpp"

int main() {
  using namespace aapc;

  // A machine room wired for redundancy: ring sw0-sw1-sw2-sw3-sw0 plus
  // a diagonal sw0-sw2, six machines per access switch (sw1..sw3).
  stp::BridgeNetwork lan;
  const stp::BridgeId sw0 = lan.add_bridge("sw0", 0x1000);  // core switch
  const stp::BridgeId sw1 = lan.add_bridge("sw1", 0x2001);
  const stp::BridgeId sw2 = lan.add_bridge("sw2", 0x2002);
  const stp::BridgeId sw3 = lan.add_bridge("sw3", 0x2003);
  struct LinkInfo {
    std::int32_t id;
    const char* name;
  };
  const LinkInfo links[] = {
      {lan.add_bridge_link(sw0, sw1, 19), "sw0-sw1"},
      {lan.add_bridge_link(sw1, sw2, 19), "sw1-sw2"},
      {lan.add_bridge_link(sw2, sw3, 19), "sw2-sw3"},
      {lan.add_bridge_link(sw3, sw0, 19), "sw3-sw0"},
      {lan.add_bridge_link(sw0, sw2, 19), "sw0-sw2 (diagonal)"},
  };
  int machine = 0;
  for (const stp::BridgeId sw : {sw1, sw2, sw3}) {
    for (int i = 0; i < 6; ++i) {
      lan.add_machine(str_cat("n", machine++), sw);
    }
  }

  std::cout << "bridged LAN: 4 switches, 5 inter-switch links (2 redundant), "
            << lan.machine_count() << " machines\n\n";

  const stp::SpanningTree tree = stp::compute_spanning_tree(lan);
  std::cout << "elected root bridge: " << lan.bridge_name(tree.root_bridge)
            << "\nlink states:\n";
  for (const LinkInfo& link : links) {
    std::cout << "  " << link.name << ": "
              << (tree.forwarding[link.id] ? "forwarding" : "BLOCKED")
              << '\n';
  }
  std::cout << "root path costs:";
  for (stp::BridgeId b = 0; b < lan.bridge_count(); ++b) {
    std::cout << ' ' << lan.bridge_name(b) << '=' << tree.root_path_cost[b];
  }
  std::cout << "\n\nactive forwarding topology:\n"
            << topology::serialize_topology(tree.topology) << '\n';

  const core::Schedule schedule = core::build_aapc_schedule(tree.topology);
  const core::VerifyReport report =
      core::verify_schedule(tree.topology, schedule);
  std::cout << "AAPC schedule on the elected tree: "
            << schedule.phase_count() << " phases ("
            << report.summary() << ")\n\n";

  harness::ExperimentConfig config;
  config.msizes = {128_KiB};
  const auto suite = harness::standard_suite(tree.topology);
  std::cout << harness::run_experiment(tree.topology,
                                       "AAPC on the elected tree", suite,
                                       config)
                   .to_string();
  return 0;
}
