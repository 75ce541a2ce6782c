// Set-up phase procedures (§V-A/B/E): discovery correctness and slot
// accounting.
#include <gtest/gtest.h>

#include "core/interference.hpp"
#include "core/setup_phase.hpp"
#include "net/deployment.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

struct ChannelFixture {
  Simulator sim;
  TwoRayGround prop;
  std::unique_ptr<Channel> channel;

  explicit ChannelFixture(const Deployment& dep) {
    std::vector<double> powers(dep.positions.size(),
                               RadioParams::kSensorTxPowerW);
    powers.back() = RadioParams::kHeadTxPowerW;
    channel = std::make_unique<Channel>(sim, prop, RadioParams{},
                                        dep.positions, powers);
  }
};

TEST(SetupPhase, DiscoversGroundTruthTopology) {
  Rng rng(21);
  const Deployment dep = deploy_connected_uniform_square(25, 200.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto result = run_setup_discovery(*fx.channel, 25);
  const auto truth = topology_from_predicate(25, [&](NodeId a, NodeId b) {
    return fx.channel->link_ok(a, b);
  });
  ASSERT_EQ(result.topology.num_sensors(), truth.num_sensors());
  for (NodeId a = 0; a < 25; ++a) {
    EXPECT_EQ(result.topology.head_hears(a), truth.head_hears(a));
    for (NodeId b = 0; b < 25; ++b) {
      if (a != b) {
        EXPECT_EQ(result.topology.sensors_linked(a, b),
                  truth.sensors_linked(a, b));
      }
    }
  }
}

TEST(SetupPhase, TempParentsFormTreeTowardHead) {
  Rng rng(22);
  const Deployment dep = deploy_connected_uniform_square(20, 200.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto result = run_setup_discovery(*fx.channel, 20);
  const NodeId head = 20;
  for (NodeId s = 0; s < 20; ++s) {
    ASSERT_NE(result.temp_parent[s], kNoNode) << "undiscovered sensor";
    std::size_t steps = 0;
    for (NodeId v = s; v != head; v = result.temp_parent[v])
      ASSERT_LE(++steps, 20u) << "cycle in temp tree";
  }
}

TEST(SetupPhase, CostsScaleWithClusterSize) {
  Rng rng(23);
  const Deployment small =
      deploy_connected_uniform_square(10, 150.0, 60.0, rng);
  const Deployment large =
      deploy_connected_uniform_square(40, 200.0, 60.0, rng);
  ChannelFixture fs(small), fl(large);
  const auto rs = run_setup_discovery(*fs.channel, 10);
  const auto rl = run_setup_discovery(*fl.channel, 40);
  // Lower bound: one broadcast per member in each phase.
  EXPECT_GE(rs.cost.discovery_slots, 1u + 10u);
  EXPECT_GE(rs.cost.connectivity_slots, 10u);
  EXPECT_GT(rl.cost.discovery_slots, rs.cost.discovery_slots);
  EXPECT_GT(rl.cost.connectivity_slots, rs.cost.connectivity_slots);
  EXPECT_GE(rl.cost.discovery_rounds, 1u);
}

TEST(SetupPhase, ProbingCostMatchesOracleProbes) {
  Rng rng(24);
  const Deployment dep = deploy_connected_uniform_square(15, 180.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto disc = run_setup_discovery(*fx.channel, 15);
  // One path per sensor along the temp tree.
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < 15; ++s) {
    std::vector<NodeId> p{s};
    for (NodeId v = s; v != 15;) {
      v = disc.temp_parent[v];
      p.push_back(v);
    }
    paths.push_back(std::move(p));
  }
  const SetupCost probe = interference_probing_cost(paths, 2);
  const auto u = transmissions_of_paths(paths).size();
  EXPECT_EQ(probe.probe_groups, MeasuredOracle::probe_count(u, 2));
  EXPECT_EQ(probe.probe_slots, 2 * MeasuredOracle::probe_count(u, 2));
}

TEST(SetupPhase, SectoredProbingIsFarCheaper) {
  // The §IV argument executed: probing per sector beats probing the
  // whole cluster because C(u, M) is super-linear in u.
  Rng rng(25);
  const Deployment dep = deploy_connected_uniform_square(36, 220.0, 60.0, rng);
  ChannelFixture fx(dep);
  const auto disc = run_setup_discovery(*fx.channel, 36);
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < 36; ++s) {
    std::vector<NodeId> p{s};
    for (NodeId v = s; v != 36;) {
      v = disc.temp_parent[v];
      p.push_back(v);
    }
    paths.push_back(std::move(p));
  }
  const SetupCost whole = interference_probing_cost(paths, 3);

  // Split the paths into 4 arbitrary quarters ("sectors") and probe each.
  std::uint64_t sectored_groups = 0;
  for (int q = 0; q < 4; ++q) {
    std::vector<std::vector<NodeId>> part;
    for (std::size_t i = static_cast<std::size_t>(q); i < paths.size();
         i += 4)
      part.push_back(paths[i]);
    sectored_groups +=
        interference_probing_cost(part, 3).probe_groups;
  }
  EXPECT_LT(sectored_groups, whole.probe_groups / 3);
}

}  // namespace
}  // namespace mhp
