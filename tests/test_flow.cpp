#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "net/deployment.hpp"
#include "reference_flow.hpp"
#include "route/routing_engine.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

using reference::FlowNetwork;

// ---------- the reference FlowNetwork ----------

TEST(FlowNetwork, ArcBookkeeping) {
  FlowNetwork net;
  net.add_nodes(3);
  const int e = net.add_arc(0, 1, 5);
  EXPECT_EQ(net.arc_from(e), 0);
  EXPECT_EQ(net.arc_to(e), 1);
  EXPECT_EQ(net.capacity(e), 5);
  EXPECT_EQ(net.flow(e), 0);
  net.push(e, 3);
  EXPECT_EQ(net.flow(e), 3);
  EXPECT_EQ(net.residual(e), 2);
  EXPECT_EQ(net.residual(e ^ 1), 3);  // twin gained
  net.reset_flow();
  EXPECT_EQ(net.flow(e), 0);
}

TEST(FlowNetwork, PushBeyondResidualThrows) {
  FlowNetwork net;
  net.add_nodes(2);
  const int e = net.add_arc(0, 1, 1);
  EXPECT_THROW(net.push(e, 2), ContractViolation);
}

// ---------- the reference max flow ----------

/// The classic CLRS example network with max flow 23.
FlowNetwork clrs_network() {
  FlowNetwork net;
  net.add_nodes(6);  // s=0, v1..v4=1..4, t=5
  net.add_arc(0, 1, 16);
  net.add_arc(0, 2, 13);
  net.add_arc(1, 3, 12);
  net.add_arc(2, 1, 4);
  net.add_arc(2, 4, 14);
  net.add_arc(3, 2, 9);
  net.add_arc(3, 5, 20);
  net.add_arc(4, 3, 7);
  net.add_arc(4, 5, 4);
  return net;
}

TEST(MaxFlow, ClrsExampleBothAlgorithms) {
  auto a = clrs_network();
  EXPECT_EQ(reference::edmonds_karp(a, 0, 5), 23);
  auto b = clrs_network();
  EXPECT_EQ(reference::max_flow(b, 0, 5), 23);
}

TEST(MaxFlow, DisconnectedIsZero) {
  FlowNetwork net;
  net.add_nodes(4);
  net.add_arc(0, 1, 10);
  net.add_arc(2, 3, 10);
  EXPECT_EQ(reference::max_flow(net, 0, 3), 0);
}

TEST(MaxFlow, ParallelArcsAdd) {
  FlowNetwork net;
  net.add_nodes(2);
  net.add_arc(0, 1, 3);
  net.add_arc(0, 1, 4);
  EXPECT_EQ(reference::max_flow(net, 0, 1), 7);
}

/// Check capacity limits and conservation of the flow left on the network.
void expect_valid_flow(const FlowNetwork& net, int s, int t,
                       FlowNetwork::Cap value) {
  std::vector<FlowNetwork::Cap> balance(
      static_cast<std::size_t>(net.num_nodes()), 0);
  for (int e = 0; e < net.num_arcs(); e += 2) {
    EXPECT_GE(net.flow(e), 0);
    EXPECT_LE(net.flow(e), net.capacity(e));
    balance[static_cast<std::size_t>(net.arc_from(e))] -= net.flow(e);
    balance[static_cast<std::size_t>(net.arc_to(e))] += net.flow(e);
  }
  for (int v = 0; v < net.num_nodes(); ++v) {
    if (v == s)
      EXPECT_EQ(balance[static_cast<std::size_t>(v)], -value);
    else if (v == t)
      EXPECT_EQ(balance[static_cast<std::size_t>(v)], value);
    else
      EXPECT_EQ(balance[static_cast<std::size_t>(v)], 0);
  }
}

class RandomMaxFlow : public ::testing::TestWithParam<int> {};

TEST_P(RandomMaxFlow, AlgorithmsAgreeAndFlowsAreValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 2 + static_cast<int>(rng.below(10));
  FlowNetwork a;
  a.add_nodes(n);
  const int arcs = n + static_cast<int>(rng.below(20));
  std::vector<std::tuple<int, int, FlowNetwork::Cap>> spec;
  for (int k = 0; k < arcs; ++k) {
    const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    const auto c = static_cast<FlowNetwork::Cap>(1 + rng.below(20));
    spec.push_back({u, v, c});
    a.add_arc(u, v, c);
  }
  FlowNetwork b;
  b.add_nodes(n);
  for (const auto& [u, v, c] : spec) b.add_arc(u, v, c);

  const auto fa = reference::edmonds_karp(a, 0, n - 1);
  const auto fb = reference::max_flow(b, 0, n - 1);
  EXPECT_EQ(fa, fb);
  expect_valid_flow(a, 0, n - 1, fa);
  expect_valid_flow(b, 0, n - 1, fb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMaxFlow, ::testing::Range(0, 25));

// ---------- Min-max load (RoutingEngine) ----------

MinMaxLoadResult solve_balanced(const ClusterTopology& topo,
                                const std::vector<std::int64_t>& demand,
                                const std::vector<std::int64_t>& weight = {}) {
  return route::RoutingEngine().solve_balanced(topo, demand, weight);
}

/// Star: every sensor hears the head directly → max load = own demand.
TEST(MinMaxLoad, SingleHopStar) {
  Graph g(4);
  ClusterTopology topo(std::move(g), {true, true, true, true});
  const auto r = solve_balanced(topo, {3, 1, 2, 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.max_load, 3);
  EXPECT_EQ(r.load, (std::vector<std::int64_t>{3, 1, 2, 1}));
  for (NodeId s = 0; s < 4; ++s) {
    ASSERT_EQ(r.paths[s].size(), 1u);
    EXPECT_EQ(r.paths[s][0].hops, (std::vector<NodeId>{s, topo.head()}));
  }
}

/// Chain 2-1-0-head: loads accumulate toward the head.
TEST(MinMaxLoad, ChainAccumulates) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ClusterTopology topo(std::move(g), {true, false, false});
  const auto r = solve_balanced(topo, {1, 1, 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.max_load, 3);  // sensor 0 relays everything
  EXPECT_EQ(r.load[0], 3);
  EXPECT_EQ(r.load[2], 1);
}

/// Diamond: 2 can reach the head via 0 or 1; balancing splits the load.
TEST(MinMaxLoad, DiamondBalances) {
  Graph g(3);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  ClusterTopology topo(std::move(g), {true, true, false});
  const auto r = solve_balanced(topo, {1, 1, 2});
  ASSERT_TRUE(r.feasible);
  // Sensor 2's two packets split across both gateways: each gateway
  // carries its own packet plus one relayed — max load 2 instead of 3.
  EXPECT_EQ(r.max_load, 2);
  EXPECT_EQ(r.load[2], 2);
  EXPECT_EQ(r.load[0] + r.load[1], 4);
  EXPECT_LE(std::max(r.load[0], r.load[1]), 2);
  // Sensor 2 got two unit paths (or one path of two units through... no:
  // balancing forces a split).
  std::int64_t units = 0;
  for (const auto& p : r.paths[2]) units += p.units;
  EXPECT_EQ(units, 2);
  EXPECT_EQ(r.paths[2].size(), 2u);
}

TEST(MinMaxLoad, InfeasibleWhenDisconnected) {
  Graph g(2);
  ClusterTopology topo(std::move(g), {true, false});
  const auto r = solve_balanced(topo, {1, 1});
  EXPECT_FALSE(r.feasible);
}

TEST(MinMaxLoad, ZeroDemandTriviallyFeasible) {
  Graph g(2);
  ClusterTopology topo(std::move(g), {true, false});
  const auto r = solve_balanced(topo, {0, 0});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.max_load, 0);
}

TEST(MinMaxLoad, WeightsShiftLoadToStrongSensors) {
  // Diamond again, but gateway 0 has double capacity.
  Graph g(3);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  ClusterTopology topo(std::move(g), {true, true, false});
  const auto r = solve_balanced(topo, {1, 1, 4}, {2, 1, 2});
  ASSERT_TRUE(r.feasible);
  // δ* such that 2δ (node 0) + 1δ (node 1) handles its own + 4 relayed.
  EXPECT_GE(r.load[0], r.load[1]);
}

/// Paths must exist in the topology, end at the head and meet demand.
void expect_valid_paths(const ClusterTopology& topo,
                        const std::vector<std::int64_t>& demand,
                        const MinMaxLoadResult& r) {
  for (NodeId s = 0; s < topo.num_sensors(); ++s) {
    std::int64_t units = 0;
    for (const auto& p : r.paths[s]) {
      ASSERT_GE(p.hops.size(), 2u);
      EXPECT_EQ(p.hops.front(), s);
      EXPECT_EQ(p.hops.back(), topo.head());
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i) {
        if (i + 2 == p.hops.size())
          EXPECT_TRUE(topo.head_hears(p.hops[i]));
        else
          EXPECT_TRUE(topo.sensors_linked(p.hops[i], p.hops[i + 1]));
      }
      units += p.units;
    }
    EXPECT_EQ(units, demand[s]);
  }
  // Reported loads match the paths.
  std::vector<std::int64_t> load(topo.num_sensors(), 0);
  for (const auto& list : r.paths)
    for (const auto& p : list)
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i)
        load[p.hops[i]] += p.units;
  EXPECT_EQ(load, r.load);
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), r.max_load);
}

class RandomMinMaxLoad : public ::testing::TestWithParam<int> {};

TEST_P(RandomMinMaxLoad, PathsValidAndNeverWorseThanShortestPath) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 5 + rng.below(15);
  const Deployment dep =
      deploy_connected_uniform_square(n, 150.0, 60.0, rng);
  const ClusterTopology topo = disc_topology(dep, 60.0);
  std::vector<std::int64_t> demand(n);
  for (auto& d : demand) d = static_cast<std::int64_t>(rng.below(4));

  const auto balanced = solve_balanced(topo, demand);
  ASSERT_TRUE(balanced.feasible);
  expect_valid_paths(topo, demand, balanced);

  const auto shortest = route::RoutingEngine().solve_shortest(topo, demand);
  ASSERT_TRUE(shortest.feasible);
  expect_valid_paths(topo, demand, shortest);

  EXPECT_LE(balanced.max_load, shortest.max_load);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMinMaxLoad, ::testing::Range(0, 20));

}  // namespace
}  // namespace mhp
