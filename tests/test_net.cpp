#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/assertx.hpp"
#include "net/cluster.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"
#include "net/packet.hpp"
#include "obs/profiler.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

// ---------- Graph ----------

TEST(Graph, EdgesAndDegrees) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 2);  // duplicate ignored
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, SelfLoopThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), ContractViolation);
}

TEST(Graph, BfsHops) {
  Graph g(5);  // path 0-1-2-3, isolated 4
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto d = g.bfs_hops(0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], Graph::kUnreachable);
  EXPECT_FALSE(g.connected());
}

TEST(Graph, ConnectedDetection) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.connected());
}

// ---------- ClusterTopology ----------

TEST(ClusterTopology, LevelsFromMultiSourceBfs) {
  // 0 and 1 first level; 2 behind 0; 3 behind 2; 4 unreachable.
  Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  ClusterTopology topo(std::move(g), {true, true, false, false, false});
  EXPECT_EQ(topo.level(0), 1u);
  EXPECT_EQ(topo.level(1), 1u);
  EXPECT_EQ(topo.level(2), 2u);
  EXPECT_EQ(topo.level(3), 3u);
  EXPECT_EQ(topo.level(4), ClusterTopology::kUnreachable);
  EXPECT_FALSE(topo.fully_connected());
  EXPECT_EQ(topo.max_level(), 3u);
  EXPECT_EQ(topo.first_level(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(topo.head(), 5u);
}

TEST(ClusterTopology, SizeMismatchThrows) {
  Graph g(3);
  EXPECT_THROW(ClusterTopology(std::move(g), {true, false}),
               ContractViolation);
}

// ---------- Deployments ----------

TEST(Deployment, UniformSquareBoundsAndHead) {
  Rng rng(1);
  const Deployment d = deploy_uniform_square(100, 200.0, rng);
  EXPECT_EQ(d.num_sensors(), 100u);
  EXPECT_EQ(d.head_pos(), (Vec2{0.0, 0.0}));
  for (NodeId s = 0; s < 100; ++s) {
    EXPECT_LE(std::abs(d.sensor_pos(s).x), 100.0);
    EXPECT_LE(std::abs(d.sensor_pos(s).y), 100.0);
  }
}

TEST(Deployment, GridIsDeterministicAndBounded) {
  const Deployment a = deploy_grid(30, 100.0);
  const Deployment b = deploy_grid(30, 100.0);
  EXPECT_EQ(a.num_sensors(), 30u);
  for (NodeId s = 0; s < 30; ++s) {
    EXPECT_EQ(a.sensor_pos(s), b.sensor_pos(s));
    EXPECT_LE(std::abs(a.sensor_pos(s).x), 50.0);
  }
}

TEST(Deployment, RingsAreConcentric) {
  const Deployment d = deploy_rings(3, 8, 40.0);
  EXPECT_EQ(d.num_sensors(), 24u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t k = 0; k < 8; ++k) {
      const double dist =
          distance(d.sensor_pos(static_cast<NodeId>(r * 8 + k)),
                   d.head_pos());
      EXPECT_NEAR(dist, 40.0 * static_cast<double>(r + 1), 1e-9);
    }
}

TEST(DiscTopology, LinksWithinRange) {
  Deployment d;
  d.positions = {{0, 0}, {50, 0}, {120, 0}, {0, 0}};  // head co-located w/ 0
  const ClusterTopology topo = disc_topology(d, 60.0);
  EXPECT_TRUE(topo.sensors_linked(0, 1));   // 50 m
  EXPECT_FALSE(topo.sensors_linked(0, 2));  // 120 m
  EXPECT_FALSE(topo.sensors_linked(1, 2));  // 70 m
}

TEST(DiscTopology, HeadHearsByUplinkRange) {
  Deployment d;
  d.positions = {{10, 0}, {60, 0}, {100, 0}, {0, 0}};
  const ClusterTopology topo = disc_topology(d, 60.0);
  EXPECT_TRUE(topo.head_hears(0));   // 10 m
  EXPECT_TRUE(topo.head_hears(1));   // 60 m, boundary inclusive
  EXPECT_FALSE(topo.head_hears(2));  // 100 m
  EXPECT_EQ(topo.level(2), 2u);      // relays through sensor 1 (40 m)
}

TEST(TopologyFromPredicate, AsymmetricLinksDropped) {
  // 0 hears 1 but 1 does not hear 0: no sensor link.
  const auto topo = topology_from_predicate(2, [](NodeId a, NodeId b) {
    if (a == 0 && b == 1) return false;
    if (a == 1 && b == 0) return true;
    return b == 2;  // everyone reaches the head
  });
  EXPECT_FALSE(topo.sensors_linked(0, 1));
  EXPECT_TRUE(topo.head_hears(0));
  EXPECT_TRUE(topo.head_hears(1));
}

TEST(ConnectedDeployment, AlwaysFullyConnected) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Deployment d =
        deploy_connected_uniform_square(40, 200.0, 60.0, rng);
    EXPECT_TRUE(disc_topology(d, 60.0).fully_connected());
  }
}

// The rejection loop without the stranded-sensor prefilter: the
// deployment it accepts and the index of that draw.
struct Accepted {
  Deployment deployment;
  int draw = -1;
};

Accepted accept_unfiltered(std::size_t n, double side, double range,
                           Rng& rng) {
  for (int t = 0; t < 5000; ++t) {
    Deployment d = deploy_uniform_square(n, side, rng);
    if (disc_topology(d, range).fully_connected()) return {std::move(d), t};
  }
  return {};
}

TEST(ConnectedDeployment, PrefilterKeepsTheDrawsAndTheAcceptedDeployment) {
  // Small clusters in the 200 m square, and Fig. 7(a) density (1333 m² a
  // sensor) at 300 and 1000 sensors, which takes dozens of draws.
  int most_draws = 0;
  for (const std::size_t n : {1, 12, 40, 300, 1000})
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const double side =
          n <= 40 ? 200.0 : std::sqrt(1333.0 * static_cast<double>(n));
      Rng want_rng(seed), got_rng(seed), short_rng(seed);
      const Accepted want = accept_unfiltered(n, side, 60.0, want_rng);
      ASSERT_GE(want.draw, 0) << "n " << n << " seed " << seed;
      const Deployment got = deploy_connected_uniform_square(
          n, side, 60.0, got_rng, want.draw + 1);
      ASSERT_EQ(got.positions.size(), want.deployment.positions.size());
      for (std::size_t i = 0; i < got.positions.size(); ++i) {
        const Vec2 a = got.positions[i];
        const Vec2 b = want.deployment.positions[i];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.x),
                  std::bit_cast<std::uint64_t>(b.x));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.y),
                  std::bit_cast<std::uint64_t>(b.y));
      }
      // The same draw index: one try fewer fails, and both streams go on
      // from the same state.
      EXPECT_THROW(deploy_connected_uniform_square(n, side, 60.0, short_rng,
                                                   want.draw),
                   ContractViolation);
      EXPECT_EQ(got_rng.next(), want_rng.next());
      most_draws = std::max(most_draws, want.draw);
    }
  EXPECT_GE(most_draws, 20);
}

// Replays the rejection loop for `tries` draws: (draws until the first
// connected one, or `tries`; how many of them left a sensor with no
// link at all).
std::pair<int, int> replay_draws(std::size_t n, double side, double range,
                                 Rng& rng, int tries) {
  int stranded = 0;
  for (int t = 1; t <= tries; ++t) {
    const Deployment d = deploy_uniform_square(n, side, rng);
    const ClusterTopology topo = disc_topology_brute_force(d, range);
    if (topo.fully_connected()) return {t, stranded};
    for (NodeId v = 0; v < n; ++v)
      if (topo.sensor_links().neighbors(v).empty() && !topo.head_hears(v)) {
        ++stranded;
        break;
      }
  }
  return {tries, stranded};
}

TEST(ConnectedDeployment, EnclosingSpanCountsDrawsAndStrandedDraws) {
  // 1000 sensors at Fig. 7(a) density take several draws, some of them
  // rejected by the stranded-sensor check and some only by the full one.
  const std::size_t n = 1000;
  const double side = std::sqrt(1333.0 * static_cast<double>(n));
  Rng want_rng(4), got_rng(4);
  const auto [draws, stranded] = replay_draws(n, side, 60.0, want_rng, 1000);
  ASSERT_GT(stranded, 0);
  ASSERT_LT(stranded + 1, draws);

  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.drain();
  profiler.enable();
  {
    MHP_SPAN("deploy");
    deploy_connected_uniform_square(n, side, 60.0, got_rng);
  }
  profiler.disable();
  const obs::ProfileSummary sum = obs::summarize_profile(profiler.drain());
  const auto& counters = sum.spans.at("deploy").counters;
  EXPECT_EQ(counters.at("draws"), static_cast<std::uint64_t>(draws));
  EXPECT_EQ(counters.at("stranded_draws"),
            static_cast<std::uint64_t>(stranded));
  EXPECT_EQ(got_rng.next(), want_rng.next());
}

TEST(ConnectedDeployment, ExhaustedTriesNameDrawsAndStrandedDraws) {
  const std::size_t n = 1000;
  const double side = std::sqrt(1333.0 * static_cast<double>(n));
  Rng want_rng(4), got_rng(4);
  const auto [draws, stranded] = replay_draws(n, side, 60.0, want_rng, 4);
  ASSERT_EQ(draws, 4);  // none of the first four draws is connected
  ASSERT_GT(stranded, 0);
  try {
    deploy_connected_uniform_square(n, side, 60.0, got_rng, 4);
    FAIL() << "four draws cannot succeed";
  } catch (const ContractViolation& e) {
    const std::string want = "no connected deployment in 4 draws (max_tries "
                             "4), " + std::to_string(stranded) +
                             " of them with a stranded sensor";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << "got: " << e.what();
  }
}

// ---------- Grid vs brute-force topology ----------

// The spatial-grid path must produce a byte-identical ClusterTopology to
// the all-pairs scan: same neighbor lists in the same order (downstream
// tie-breaks iterate them), same head links, same levels.
void expect_identical_topology(const Deployment& d, double range) {
  const ClusterTopology grid = disc_topology(d, range);
  const ClusterTopology brute = disc_topology_brute_force(d, range);
  ASSERT_EQ(grid.sensor_links().size(), brute.sensor_links().size());
  for (NodeId v = 0; v < d.num_sensors(); ++v)
    EXPECT_EQ(grid.sensor_links().neighbors(v),
              brute.sensor_links().neighbors(v))
        << "neighbor list of node " << v;
  for (NodeId s = 0; s < d.num_sensors(); ++s) {
    EXPECT_EQ(grid.head_hears(s), brute.head_hears(s)) << "head link " << s;
    EXPECT_EQ(grid.level(s), brute.level(s)) << "level of " << s;
  }
}

TEST(DiscTopologyGrid, MatchesBruteForceOnRandomDeployments) {
  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 5 + static_cast<std::size_t>(trial) * 11;
    const Deployment d =
        deploy_uniform_square(n, 120.0 + 15.0 * trial, rng);
    expect_identical_topology(d, 60.0);
  }
}

TEST(DiscTopologyGrid, CoLocatedSensorsFormACompleteGraph) {
  Deployment d;
  for (int i = 0; i < 20; ++i) d.positions.push_back({5.0, 5.0});
  d.positions.push_back({0.0, 0.0});  // head
  expect_identical_topology(d, 60.0);
  const ClusterTopology topo = disc_topology(d, 60.0);
  EXPECT_EQ(topo.sensor_links().edge_count(), 20u * 19u / 2u);
}

TEST(DiscTopologyGrid, PairsExactlyAtSensorRangeAreLinked) {
  // Representable exact-boundary distances: collinear 60 and the 36-48-60
  // right triangle.  The grid's fast path must defer to the same
  // distance() verdict the brute-force scan uses.
  Deployment d;
  d.positions = {{0, 0}, {60, 0}, {120, 0}, {36, 48}, {0, 0}};
  expect_identical_topology(d, 60.0);
  const ClusterTopology topo = disc_topology(d, 60.0);
  EXPECT_TRUE(topo.sensors_linked(0, 1));   // exactly 60 m
  EXPECT_TRUE(topo.sensors_linked(0, 3));   // hypot(36, 48) = 60 m
  EXPECT_FALSE(topo.sensors_linked(0, 2));  // 120 m
  EXPECT_TRUE(topo.sensors_linked(1, 3));   // hypot(24, 48) < 60
}

TEST(DiscTopologyGrid, EmptyAndSingletonDeployments) {
  Deployment none;
  none.positions = {{0.0, 0.0}};  // head only
  expect_identical_topology(none, 60.0);
  EXPECT_EQ(disc_topology(none, 60.0).num_sensors(), 0u);

  Deployment one;
  one.positions = {{10.0, 10.0}, {0.0, 0.0}};
  expect_identical_topology(one, 60.0);
  EXPECT_EQ(disc_topology(one, 60.0).sensor_links().edge_count(), 0u);
}

TEST(DiscTopologyGrid, SparseSpreadLayoutUsesCappedCells) {
  // Sensor pairs strewn across ~100 km: the natural cell count would be
  // O(area), so the grid caps cells by enlarging them — which must not
  // change any verdict.
  Deployment d;
  for (int i = 0; i < 15; ++i) {
    const double x = static_cast<double>(i) * 7000.0;
    d.positions.push_back({x, 0.0});
    d.positions.push_back({x + 50.0, 10.0});
  }
  d.positions.push_back({0.0, 0.0});  // head
  expect_identical_topology(d, 60.0);
  // Each strewn pair is linked; nothing links across pairs.
  EXPECT_EQ(disc_topology(d, 60.0).sensor_links().edge_count(), 15u);
}

// ---------- Frames ----------

TEST(FrameUidSource, MonotonicallyIncreasing) {
  FrameUidSource uids;
  const auto a = uids.next();
  const auto b = uids.next();
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace mhp
