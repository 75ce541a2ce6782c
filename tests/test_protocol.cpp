// End-to-end integration tests of the duty-cycle polling protocol over
// the discrete-event channel (cluster head + sensor agents).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <span>

#include "core/polling_simulation.hpp"
#include "net/deployment.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

Deployment small_cluster(std::uint64_t seed, std::size_t n = 12) {
  Rng rng(seed);
  return deploy_connected_uniform_square(n, 160.0, 60.0, rng);
}

TEST(Protocol, DeliversEverythingAtLowLoad) {
  ProtocolConfig cfg;
  PollingSimulation sim(small_cluster(1), cfg, 20.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_GT(rep.packets_generated, 0u);
  EXPECT_EQ(rep.packets_lost, 0u);
  // Packets generated just before the window end are still queued.
  EXPECT_GE(rep.delivery_ratio, 0.9);
  EXPECT_NEAR(rep.throughput_bps, rep.offered_bps,
              0.15 * rep.offered_bps);
}

TEST(Protocol, SensorsSleepMostOfTheTime) {
  ProtocolConfig cfg;
  PollingSimulation sim(small_cluster(2), cfg, 20.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_LT(rep.max_active_fraction, 0.5);
  EXPECT_GT(rep.mean_active_fraction, 0.0);
  // Idle-dominated power: far below the always-on 21 mW (idle rx mix).
  EXPECT_LT(rep.max_sensor_power_w, 0.5 * cfg.sensor_energy.idle_w);
}

TEST(Protocol, DeterministicAcrossRuns) {
  ProtocolConfig cfg;
  cfg.seed = 77;
  const Deployment dep = small_cluster(3);
  PollingSimulation a(dep, cfg, 30.0);
  PollingSimulation b(dep, cfg, 30.0);
  const auto ra = a.run(Time::sec(30), Time::sec(5));
  const auto rb = b.run(Time::sec(30), Time::sec(5));
  EXPECT_EQ(ra.packets_generated, rb.packets_generated);
  EXPECT_EQ(ra.packets_delivered, rb.packets_delivered);
  EXPECT_DOUBLE_EQ(ra.mean_active_fraction, rb.mean_active_fraction);
  EXPECT_DOUBLE_EQ(ra.max_sensor_power_w, rb.max_sensor_power_w);
}

TEST(Protocol, RandomLossIsRecoveredByRepolling) {
  ProtocolConfig cfg;
  cfg.random_loss = 0.15;
  PollingSimulation sim(small_cluster(4), cfg, 20.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_GT(sim.head().reactivations(), 0u);
  EXPECT_GE(rep.delivery_ratio, 0.85);
}

TEST(Protocol, HigherRateRaisesActiveTime) {
  const Deployment dep = small_cluster(5);
  ProtocolConfig cfg;
  PollingSimulation slow(dep, cfg, 10.0);
  PollingSimulation fast(dep, cfg, 80.0);
  const auto rs = slow.run(Time::sec(40), Time::sec(10));
  const auto rf = fast.run(Time::sec(40), Time::sec(10));
  EXPECT_GT(rf.mean_active_fraction, rs.mean_active_fraction);
}

TEST(Protocol, OverloadSaturatesAndLosesPackets) {
  // 12 sensors at 1.5 kB/s ≈ 18 kB/s offered: with ~4 ms slots and
  // multi-hop relays the 200 kbps cluster cannot drain this.
  ProtocolConfig cfg;
  PollingSimulation sim(small_cluster(6), cfg, 1500.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_LT(rep.delivery_ratio, 0.9);
  EXPECT_GT(rep.packets_lost, 0u);
  EXPECT_GT(rep.max_active_fraction, 0.85);
}

TEST(Protocol, SectorsReduceActiveTime) {
  const Deployment dep = small_cluster(7, 20);
  ProtocolConfig plain;
  ProtocolConfig sectored;
  sectored.use_sectors = true;
  PollingSimulation a(dep, plain, 15.0);
  PollingSimulation b(dep, sectored, 15.0);
  ASSERT_TRUE(b.sector_partition().has_value());
  if (b.sector_partition()->sectors.size() < 2)
    GTEST_SKIP() << "deployment produced a single sector";
  const auto ra = a.run(Time::sec(40), Time::sec(10));
  const auto rb = b.run(Time::sec(40), Time::sec(10));
  EXPECT_GE(rb.delivery_ratio, 0.9);
  EXPECT_LT(rb.mean_active_fraction, ra.mean_active_fraction);
  // Lifetime improves with the lower power draw (Fig 7(c) direction).
  EXPECT_GT(rb.lifetime_s(2400.0), ra.lifetime_s(2400.0));
}

TEST(Protocol, SetupExposesPlansAndOracle) {
  ProtocolConfig cfg;
  cfg.oracle_order = 2;
  PollingSimulation sim(small_cluster(8), cfg, 20.0);
  EXPECT_TRUE(sim.topology().fully_connected());
  EXPECT_GE(sim.relay_plan().max_load(), 1);
  EXPECT_EQ(sim.oracle().order(), 2);
  EXPECT_GT(sim.oracle().probes(), 0u);
}

TEST(Protocol, LatencyBoundedByCyclePeriod) {
  ProtocolConfig cfg;
  cfg.cycle_period = Time::ms(500);
  PollingSimulation sim(small_cluster(9), cfg, 20.0);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  // A packet waits at most ~one cycle plus the drain time.
  EXPECT_GT(rep.mean_latency_s, 0.0);
  EXPECT_LT(rep.mean_latency_s, 1.5 * cfg.cycle_period.to_seconds());
}

TEST(Protocol, WorksOverArbitraryShadowedCoverage) {
  // §III-B's premise exercised end-to-end: with log-normal shadowing the
  // coverage areas are not discs, yet the protocol — which *measures*
  // connectivity and interference instead of assuming a model — still
  // delivers everything.
  ProtocolConfig cfg;
  cfg.propagation = PropagationModel::kLogNormalShadowing;
  cfg.shadowing_sigma_db = 4.0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    cfg.environment_seed = seed;
    Rng rng(seed);
    // Denser deployment: shadowing kills some geometric links.
    const Deployment dep =
        deploy_connected_uniform_square(15, 140.0, 50.0, rng);
    try {
      PollingSimulation sim(dep, cfg, 20.0);
      const auto rep = sim.run(Time::sec(30), Time::sec(5));
      EXPECT_GE(rep.delivery_ratio, 0.9) << "environment " << seed;
      return;  // one connected shadowed environment suffices
    } catch (const ContractViolation&) {
      continue;  // this environment disconnected the cluster; try another
    }
  }
  FAIL() << "no connected shadowed environment found in 30 tries";
}

TEST(Protocol, FreeSpacePropagationAlsoWorks) {
  ProtocolConfig cfg;
  cfg.propagation = PropagationModel::kFreeSpace;
  PollingSimulation sim(small_cluster(12), cfg, 20.0);
  const auto rep = sim.run(Time::sec(30), Time::sec(5));
  EXPECT_GE(rep.delivery_ratio, 0.9);
}

TEST(Protocol, PathRotationBalancesRelays) {
  // Diamond built geometrically: gateways 0 and 1 both hear the head;
  // sensor 2 (90 m out) reaches only the gateways.  Sensor 2 offers
  // 3 packets per cycle, each gateway one of its own — min-max routing
  // must split sensor 2's flow, and rotation (§V-D) should spread the
  // relay burden over both gateways.
  Deployment dep;
  dep.positions = {{30, 50}, {-30, 50}, {0, 90}, {0, 0}};
  const std::vector<double> rates = {20.0, 20.0, 240.0};

  auto relay_tx = [&](bool rotate) {
    ProtocolConfig cfg;
    cfg.rotate_paths = rotate;
    PollingSimulation sim(dep, cfg, rates);
    const auto rep = sim.run(Time::sec(40), Time::sec(10));
    EXPECT_GE(rep.delivery_ratio, 0.9) << "rotate=" << rotate;
    return std::pair<std::uint64_t, std::uint64_t>{
        sim.sensor(0).frames_sent(), sim.sensor(1).frames_sent()};
  };

  const auto [r0, r1] = relay_tx(true);
  const auto [s0, s1] = relay_tx(false);
  // Rotation: both gateways share the relay load...
  const auto rot_min = std::min(r0, r1);
  const auto rot_max = std::max(r0, r1);
  // ...while the static plan pins the split chosen at cycle 0.
  const auto st_min = std::min(s0, s1);
  const auto st_max = std::max(s0, s1);
  EXPECT_LT(rot_max - rot_min, st_max - st_min)
      << "rotation should even out relay transmissions";
}

TEST(Protocol, CountsCompletedCyclesAndDutyTimeSamples) {
  ProtocolConfig cfg;
  PollingSimulation sim(small_cluster(13), cfg, 20.0);
  sim.run(Time::sec(12), Time::sec(2));
  // 10 cycles start in the 10 s window; each wakes the one flat sector
  // and puts it back to sleep once (one duty-time sample per drain).
  const HeadAgent& head = sim.head();
  EXPECT_EQ(head.cycles_completed(), 10u);
  EXPECT_EQ(head.duty_time_s().count(), head.cycles_completed());
}

TEST(Protocol, SectorWindowOverrunCountsLosses) {
  // Sectored cluster under a heavy load: some sector windows are too
  // short to drain, so the head aborts and reports lost packets rather
  // than wedging or starving the next sector.
  ProtocolConfig cfg;
  cfg.use_sectors = true;
  cfg.cycle_period = Time::ms(300);
  PollingSimulation sim(small_cluster(14, 20), cfg, 800.0);
  const auto rep = sim.run(Time::sec(30), Time::sec(5));
  const HeadAgent& head = sim.head();
  EXPECT_GT(head.window_overruns(), 0u);
  EXPECT_GT(head.packets_lost_abort(), 0u);
  EXPECT_GE(rep.packets_lost, head.packets_lost_abort());
  EXPECT_GT(head.cycles_completed(), 50u);  // cycles keep running
}

TEST(Protocol, AckLossSkipsSensorForOneCycleOnly) {
  // With moderate random loss, some acks die even after re-polls; the
  // affected sensors' backlog is simply collected next cycle, so overall
  // delivery stays high over time.
  ProtocolConfig cfg;
  cfg.random_loss = 0.3;
  cfg.max_retries = 2;  // force occasional ack abandonment
  PollingSimulation sim(small_cluster(15), cfg, 20.0);
  const auto rep = sim.run(Time::sec(60), Time::sec(10));
  EXPECT_GE(rep.delivery_ratio, 0.7);
  EXPECT_GT(sim.head().reactivations(), 0u);
}

TEST(Protocol, MisuseIsRejected) {
  const Deployment dep = small_cluster(16);
  ProtocolConfig cfg;
  // One rate per sensor, not fewer.
  EXPECT_THROW(PollingSimulation(dep, cfg, std::vector<double>{1.0, 2.0}),
               ContractViolation);
  // Measurement window must be positive.
  PollingSimulation sim(dep, cfg, 20.0);
  EXPECT_THROW(sim.run(Time::sec(5), Time::sec(5)), ContractViolation);
  // Disconnected deployments are refused at set-up.
  Deployment lonely;
  lonely.positions = {{0, 0}, {500, 0}, {0, 0}};  // sensor 1 unreachable
  EXPECT_THROW(PollingSimulation(lonely, cfg, 20.0), ContractViolation);
}

TEST(ClusterStack, RotatingPlansRepeatEveryRotationPeriod) {
  // The StackPins geometry at two and three packets a cycle (160 and
  // 240 B/s): multi-path sensors rotate over windows of 2 and 3 cycles,
  // so the plan's period (6) exceeds every single window.
  Rng rng(1);
  const Deployment dep = deploy_connected_uniform_square(24, 200.0, 60.0, rng);
  std::vector<double> rates;
  for (std::size_t s = 0; s < dep.num_sensors(); ++s)
    rates.push_back(s % 2 == 0 ? 160.0 : 240.0);
  ClusterField field(ProtocolConfig{}, RuntimeOptions{},
                     {"test/warmup", "test/measured", "test/replan"});
  const FieldCluster cluster{&dep, Vec2{}, 0, rates};
  field.set_up(std::span(&cluster, 1), 0, Time{});
  ClusterStack& stack = field.stack(0);
  const RelayPlan& plan = stack.relay_plan();

  std::set<std::uint64_t> windows;
  for (NodeId s = 0; s < stack.num_sensors(); ++s) {
    if (plan.paths(s).size() < 2) continue;
    std::uint64_t window = 0;
    for (const UnitPath& p : plan.paths(s))
      window += static_cast<std::uint64_t>(p.units);
    windows.insert(window);
  }
  ASSERT_GE(windows.size(), 2u) << "need multi-path sensors of two windows";
  const std::uint64_t period = std::accumulate(
      windows.begin(), windows.end(), std::uint64_t{1},
      [](std::uint64_t a, std::uint64_t b) { return std::lcm(a, b); });
  ASSERT_GT(period, *windows.rbegin());
  EXPECT_EQ(plan.rotation_period(), period);

  // Cluster 0 sits at channel base 0, so local ids are channel ids.
  auto fresh = [&](std::uint64_t cycle) {
    std::vector<NodeId> members;
    std::vector<std::vector<NodeId>> paths;
    for (NodeId s = 0; s < stack.num_sensors(); ++s) {
      members.push_back(s);
      paths.push_back(plan.path_for_cycle(s, cycle).hops);
    }
    return make_sector(std::move(members), std::move(paths));
  };
  // Every ordered pair of cycles, so a plan held from any earlier cycle,
  // in the same phase or not, is caught if it is stale.
  for (std::uint64_t from = 0; from <= 2 * period + 1; ++from)
    for (std::uint64_t to = 0; to <= 2 * period + 1; ++to) {
      SCOPED_TRACE(testing::Message() << "cycle " << from << " then " << to);
      stack.plans(from);
      const std::vector<SectorPlan>& got = stack.plans(to);
      ASSERT_EQ(got.size(), 1u);
      const SectorPlan want = fresh(to);
      EXPECT_EQ(got.front().members, want.members);
      EXPECT_EQ(got.front().data_path, want.data_path);
      EXPECT_EQ(got.front().ack_paths, want.ack_paths);
    }
}

TEST(CachedOracle, PairScreenAgreesWithMeasuredOracleOnAProbedUniverse) {
  // The StackPins cluster at two packets a cycle, M = 3: with rotation
  // every unit path is in the universe the head probes.
  Rng rng(1);
  const Deployment dep = deploy_connected_uniform_square(24, 200.0, 60.0, rng);
  const PollingSimulation sim(dep, ProtocolConfig{}, 160.0);
  const MeasuredOracle& measured = sim.oracle();
  ASSERT_EQ(measured.order(), 3);
  const std::span<const Tx> u = measured.universe();
  ASSERT_GE(u.size(), 3u);

  // Each pair, then every triple grown from it, so later pairs are
  // answered from subset closure and later triples by the pair screen.
  const CachedOracle cached(measured, CachedOracle::PairScreen::kOn);
  const auto agree = [&](std::vector<Tx> group) {
    return cached.compatible(group) == measured.compatible(group);
  };
  for (std::size_t i = 0; i < u.size(); ++i) {
    ASSERT_TRUE(agree({u[i]}));
    for (std::size_t j = i + 1; j < u.size(); ++j) {
      ASSERT_TRUE(agree({u[i], u[j]})) << "pair " << i << "," << j;
      for (std::size_t k = j + 1; k < u.size(); ++k)
        ASSERT_TRUE(agree({u[i], u[j], u[k]}))
            << "triple " << i << "," << j << "," << k;
    }
  }
  EXPECT_GT(cached.screened(), 0u);
  EXPECT_GT(cached.hits(), cached.screened());
}

TEST(Lifetime, ReportLifetimeIsInfiniteWhenNoPowerWasDrawn) {
  // An idle cluster never exhausts a battery: +inf, not a 0.0 sentinel
  // that would rank an idle cluster as the shortest-lived one.
  SimulationReport r;
  EXPECT_TRUE(std::isinf(r.lifetime_s(100.0)));
  EXPECT_GT(r.lifetime_s(100.0), 0.0);
  r.max_sensor_power_w = 0.5;
  EXPECT_DOUBLE_EQ(r.lifetime_s(100.0), 200.0);
}

}  // namespace
}  // namespace mhp
