// Inter-cluster coordination (§V-G): shared-channel interference and the
// two remedies, on the event simulator.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/multi_cluster_sim.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

std::vector<ClusterSpec> two_adjacent_clusters(std::uint64_t seed) {
  std::vector<ClusterSpec> specs;
  Rng rng(seed);
  for (int i = 0; i < 2; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(10, 170.0, 60.0, rng);
    spec.origin = {i * 200.0, 0.0};  // overlapping boundaries
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(MultiCluster, ColoredChannelsIsolateClusters) {
  ProtocolConfig cfg;
  cfg.seed = 3;
  MultiClusterSimulation sim(two_adjacent_clusters(3), cfg,
                             InterClusterMode::kColored, 30.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_EQ(rep.channels_used, 2);
  for (double d : rep.delivery_ratio) EXPECT_GE(d, 0.95);
}

TEST(MultiCluster, TokenRotationSharesOneChannel) {
  ProtocolConfig cfg;
  cfg.seed = 4;
  MultiClusterSimulation sim(two_adjacent_clusters(4), cfg,
                             InterClusterMode::kToken, 30.0);
  EXPECT_EQ(sim.channels_used(), 1);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  for (double d : rep.delivery_ratio) EXPECT_GE(d, 0.95);
}

TEST(MultiCluster, SharedChannelSuffersAtBoundaries) {
  ProtocolConfig cfg;
  cfg.seed = 5;
  MultiClusterSimulation shared(two_adjacent_clusters(5), cfg,
                                InterClusterMode::kShared, 30.0);
  const auto rs = shared.run(Time::sec(40), Time::sec(10));

  MultiClusterSimulation colored(two_adjacent_clusters(5), cfg,
                                 InterClusterMode::kColored, 30.0);
  const auto rc = colored.run(Time::sec(40), Time::sec(10));

  // Simultaneous polls on one channel lose packets the remedies do not.
  EXPECT_LT(rs.aggregate_delivery, rc.aggregate_delivery);
}

TEST(MultiCluster, FarApartClustersShareSafely) {
  // 1 km apart: no mutual interference even on the shared channel.
  std::vector<ClusterSpec> specs;
  Rng rng(6);
  for (int i = 0; i < 2; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(8, 150.0, 60.0, rng);
    spec.origin = {i * 1000.0, 0.0};
    specs.push_back(std::move(spec));
  }
  ProtocolConfig cfg;
  cfg.seed = 6;
  MultiClusterSimulation sim(specs, cfg, InterClusterMode::kShared, 30.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  for (double d : rep.delivery_ratio) EXPECT_GE(d, 0.95);

  // And the colouring agrees: no adjacency → one channel suffices.
  MultiClusterSimulation colored(specs, cfg, InterClusterMode::kColored,
                                 30.0);
  EXPECT_EQ(colored.channels_used(), 1);
}

TEST(MultiCluster, SingleClusterDegeneratesToPlainProtocol) {
  std::vector<ClusterSpec> specs;
  Rng rng(7);
  ClusterSpec spec;
  spec.deployment = deploy_connected_uniform_square(10, 170.0, 60.0, rng);
  spec.origin = {0.0, 0.0};
  specs.push_back(std::move(spec));
  ProtocolConfig cfg;
  cfg.seed = 7;
  MultiClusterSimulation sim(specs, cfg, InterClusterMode::kShared, 30.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  ASSERT_EQ(rep.delivery_ratio.size(), 1u);
  EXPECT_GE(rep.delivery_ratio[0], 0.95);
}

// ---------- the protocol config applies per cluster ----------

std::vector<ClusterSpec> one_cluster(std::uint64_t seed, std::size_t sensors,
                                     double side) {
  Rng rng(seed);
  ClusterSpec spec;
  spec.deployment = deploy_connected_uniform_square(sensors, side, 60.0, rng);
  spec.origin = {0.0, 0.0};
  return {std::move(spec)};
}

TEST(MultiCluster, RoutingPolicyAppliesAtSetUp) {
  // The deployment of RoutingPolicy.BalancedRoutingLowersWorstRelayLoad:
  // the set-up max-flow plan (§III-A) must spread relaying, so its worst
  // sensor forwards fewer packets than under hop-count shortest paths.
  auto worst_relayed = [](RoutingPolicy policy) {
    ProtocolConfig cfg;
    cfg.routing = policy;
    MultiClusterSimulation sim(one_cluster(1, 24, 200.0), cfg,
                               InterClusterMode::kShared, 40.0);
    const MultiClusterReport rep = sim.run(Time::sec(30), Time::sec(10));
    std::uint64_t worst = 0;
    for (const auto& [id, v] :
         rep.totals.metrics.labeled_counters(metric::kNodeRelayed))
      worst = std::max(worst, v);
    return worst;
  };
  const std::uint64_t balanced =
      worst_relayed(RoutingPolicy::kBalancedMaxFlow);
  const std::uint64_t shortest = worst_relayed(RoutingPolicy::kShortestPath);
  EXPECT_GT(shortest, 0u);
  EXPECT_LT(balanced, shortest);
}

TEST(MultiCluster, PropagationModelApplies) {
  ProtocolConfig cfg;
  cfg.propagation = PropagationModel::kFreeSpace;
  MultiClusterSimulation sim(one_cluster(7, 10, 170.0), cfg,
                             InterClusterMode::kShared, 30.0);
  EXPECT_NE(dynamic_cast<const FreeSpace*>(&sim.runtime().propagation()),
            nullptr);
}

TEST(MultiCluster, SectorsAreRejected) {
  ProtocolConfig cfg;
  cfg.use_sectors = true;
  EXPECT_THROW(MultiClusterSimulation(one_cluster(7, 10, 170.0), cfg,
                                      InterClusterMode::kShared, 30.0),
               ContractViolation);
}

}  // namespace
}  // namespace mhp
