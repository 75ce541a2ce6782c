// Fault injection and head-driven route repair: the FaultPlan/Injector
// primitives, repair_routes on the surviving topology, and the
// degradation accounting of all three simulation stacks.
#include <gtest/gtest.h>

#include <sstream>

#include "baseline/smac_simulation.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/polling_simulation.hpp"
#include "core/route_repair.hpp"
#include "exp/fig_common.hpp"
#include "fault/fault_injector.hpp"
#include "net/deployment.hpp"
#include "obs/report_json.hpp"
#include "sim/simulator.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

// ---------- FaultPlan / FaultInjector primitives ----------

TEST(FaultPlan, BuildersAccumulateAndEmptyIsDefault) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.kill_at(3, Time::sec(5))
      .kill_on_battery(4, 0.5)
      .degrade_link(0, 1, Time::sec(1), Time::sec(2), 0.3);
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.deaths().size(), 2u);
  EXPECT_EQ(plan.deaths()[0].cause, NodeDeath::Cause::kScripted);
  EXPECT_EQ(plan.deaths()[1].cause, NodeDeath::Cause::kBattery);
  EXPECT_DOUBLE_EQ(plan.deaths()[1].battery_j, 0.5);
  ASSERT_EQ(plan.degradations().size(), 1u);
}

TEST(FaultInjector, ScriptedDeathFiresHandlerOncePerNode) {
  Simulator sim;
  FaultPlan plan;
  plan.kill_at(3, Time::sec(1)).kill_at(3, Time::sec(2));
  FaultInjector inj(sim, plan);
  int calls = 0;
  inj.set_death_handler([&](const NodeDeath& d) {
    ++calls;
    EXPECT_EQ(d.node, 3u);
  });
  inj.arm();
  sim.run_until(Time::sec(5));
  EXPECT_EQ(calls, 1);  // second scripted death of the same node is a no-op
  EXPECT_TRUE(inj.is_dead(3));
  EXPECT_FALSE(inj.is_dead(0));
  EXPECT_EQ(inj.dead_nodes(), std::vector<NodeId>{3});
}

TEST(FaultInjector, LinkLossWindowsAreSymmetricAndCombine) {
  Simulator sim;
  FaultPlan plan;
  plan.degrade_link(0, 1, Time::sec(1), Time::sec(2), 0.5);
  plan.degrade_link(1, 0, Time::sec(1), Time::sec(2), 0.5);  // overlapping
  FaultInjector inj(sim, plan);
  EXPECT_DOUBLE_EQ(inj.link_loss(0, 1, Time::ms(500)), 0.0);
  // Two independent 0.5 windows: survive both with p=0.25.
  EXPECT_DOUBLE_EQ(inj.link_loss(0, 1, Time::ms(1500)), 0.75);
  EXPECT_DOUBLE_EQ(inj.link_loss(1, 0, Time::ms(1500)), 0.75);  // symmetric
  EXPECT_DOUBLE_EQ(inj.link_loss(0, 2, Time::ms(1500)), 0.0);
  EXPECT_DOUBLE_EQ(inj.link_loss(0, 1, Time::sec(2)), 0.0);  // [begin, end)
}

// ---------- repair_routes ----------

/// The sensors a repaired plan still routes: the members of the flat
/// sector the head drains after the repair.
std::vector<NodeId> routed_sensors(const RelayPlan& plan) {
  std::vector<NodeId> out;
  for (NodeId s = 0; s < plan.num_sensors(); ++s)
    if (!plan.paths(s).empty()) out.push_back(s);
  return out;
}

TEST(RouteRepair, DeadRelayIsExcludedAndUnreachableSensorsOrphaned) {
  // Line: head hears only 0; 0-1-2 chain.  Killing 1 strands 2.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ClusterTopology topo(g, {true, false, false});
  ASSERT_TRUE(topo.fully_connected());

  const RouteRepair rep =
      repair_routes(topo, {1}, {1, 1, 1}, RoutingPolicy::kBalancedMaxFlow);
  EXPECT_EQ(rep.orphaned, std::vector<NodeId>{2});
  // Only the surviving routable sensor keeps a path (and so is polled);
  // the dead relay and the orphan are off the plan entirely.
  EXPECT_EQ(routed_sensors(rep.plan), std::vector<NodeId>{0});
  for (const auto& paths : rep.plan.all_paths())
    for (const UnitPath& path : paths)
      for (NodeId hop : path.hops) EXPECT_NE(hop, 1u);
}

TEST(RouteRepair, SurvivingRelayPathsAvoidTheDeadNode) {
  // Diamond: 2 reaches the head via 0 or 1; kill 0 and 2 must route via 1.
  Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  ClusterTopology topo(g, {true, true, false});
  const RouteRepair rep =
      repair_routes(topo, {0}, {1, 1, 1}, RoutingPolicy::kBalancedMaxFlow);
  EXPECT_TRUE(rep.orphaned.empty());
  EXPECT_EQ(routed_sensors(rep.plan), (std::vector<NodeId>{1, 2}));
  for (const auto& paths : rep.plan.all_paths())
    for (const UnitPath& path : paths)
      for (NodeId hop : path.hops) EXPECT_NE(hop, 0u);
}

TEST(RouteRepair, LosingTheOnlyUplinkOrphansEverySurvivor) {
  // Line: head hears only 0; 0-1-2 chain.  Killing 0 leaves no survivor a
  // path: the repair is feasible and empty, not an error.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ClusterTopology topo(g, {true, false, false});
  for (RoutingPolicy routing :
       {RoutingPolicy::kBalancedMaxFlow, RoutingPolicy::kShortestPath}) {
    const RouteRepair rep = repair_routes(topo, {0}, {1, 1, 1}, routing);
    EXPECT_EQ(rep.orphaned, (std::vector<NodeId>{1, 2}));
    EXPECT_TRUE(routed_sensors(rep.plan).empty());
    EXPECT_EQ(rep.plan.max_load(), 0);
  }
}

/// Head at the origin and three sensors 40 m apart on a line: only the
/// first sensor reaches the head, so its death orphans the other two.
Deployment uplink_chain() {
  return Deployment{{{40.0, 0.0}, {80.0, 0.0}, {120.0, 0.0}, {0.0, 0.0}}};
}

// ---------- polling stack: end-to-end recovery ----------

// The bench smoke point: 14 sensors with a load-bearing relay.
constexpr std::uint64_t kSeed = 8040;

TEST(FaultRecovery, RelayDeathTriggersReplanAndRestoresDelivery) {
  const Deployment dep = exp::eval_deployment(14, kSeed);

  // Pick the busiest relay from a probe construction (same seed →
  // the faulted run's set-up produces the same plan).
  PollingSimulation probe(dep, exp::eval_protocol_config(kSeed), 20.0);
  NodeId victim = 0;
  std::size_t victim_deps = 0;
  for (NodeId s = 0; s < dep.num_sensors(); ++s) {
    const std::size_t deps = probe.relay_plan().dependents(s, 0).size();
    if (deps > victim_deps) {
      victim_deps = deps;
      victim = s;
    }
  }
  ASSERT_GT(victim_deps, 0u) << "deployment has no load-bearing relay";

  ProtocolConfig cfg = exp::eval_protocol_config(kSeed);
  cfg.faults.kill_at(victim, Time::sec(20));
  cfg.recovery.enabled = true;
  PollingSimulation sim(dep, cfg, 20.0);
  const SimulationReport r = sim.run(Time::sec(40), Time::sec(10));

  ASSERT_TRUE(r.degradation.has_value());
  const DegradationReport& deg = *r.degradation;
  EXPECT_EQ(deg.deaths, 1u);
  EXPECT_EQ(deg.dead_nodes, std::vector<NodeId>{victim});
  EXPECT_GE(deg.deaths_detected, 1u);
  EXPECT_GE(deg.replans, 1u);
  EXPECT_TRUE(sim.sensor(victim).dead());
  // The acceptance bar: the repaired routes restore at least 90% of the
  // pre-fault delivery ratio.
  EXPECT_GE(deg.delivery_after, 0.9 * deg.delivery_before);
  // Counters land in the metrics snapshot and the JSON export.
  EXPECT_EQ(r.metrics.counter("fault.deaths"), 1u);
  const std::string json = obs::to_json(r).dump();
  EXPECT_NE(json.find("\"degradation\""), std::string::npos);
  EXPECT_NE(json.find("\"delivery_after\""), std::string::npos);
}

TEST(FaultRecovery, RepairThatOrphansEverySurvivorRunsToTheEnd) {
  ProtocolConfig cfg;
  cfg.faults.kill_at(0, Time::sec(20));
  cfg.recovery.enabled = true;
  PollingSimulation sim(uplink_chain(), cfg, 20.0);
  ASSERT_EQ(sim.relay_plan().load(0), 3);
  const SimulationReport r = sim.run(Time::sec(40), Time::sec(10));

  ASSERT_TRUE(r.degradation.has_value());
  const DegradationReport& deg = *r.degradation;
  EXPECT_EQ(deg.deaths, 1u);
  EXPECT_EQ(deg.deaths_detected, 1u);
  EXPECT_EQ(deg.orphaned_sensors, 2u);
  EXPECT_EQ(deg.dead_nodes, std::vector<NodeId>{0});
  EXPECT_GT(deg.delivery_before, 0.0);
  EXPECT_EQ(deg.delivery_after, 0.0);
}

TEST(FaultRecovery, DisabledFaultsLeaveReportsUntouched) {
  const Deployment dep = exp::eval_deployment(14, kSeed);
  PollingSimulation sim(dep, exp::eval_protocol_config(kSeed), 20.0);
  const SimulationReport r = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_FALSE(r.degradation.has_value());
  EXPECT_FALSE(r.metrics.has_counter("fault.deaths"));
  const std::string json = obs::to_json(r).dump();
  EXPECT_EQ(json.find("degradation"), std::string::npos);
}

TEST(FaultRecovery, BatteryExhaustionKillsTheSensor) {
  const Deployment dep = exp::eval_deployment(14, kSeed);
  ProtocolConfig cfg = exp::eval_protocol_config(kSeed);
  // A few millijoules: exhausted within seconds at sensor duty cycles.
  cfg.faults.kill_on_battery(0, 0.005);
  PollingSimulation sim(dep, cfg, 20.0);
  const SimulationReport r = sim.run(Time::sec(40), Time::sec(10));
  ASSERT_TRUE(r.degradation.has_value());
  EXPECT_EQ(r.degradation->deaths, 1u);
  EXPECT_EQ(r.degradation->dead_nodes, std::vector<NodeId>{0});
  EXPECT_TRUE(sim.sensor(0).dead());
}

TEST(FaultRecovery, BatteryDeathCountsWarmupEnergy) {
  // The battery drains over the sensor's whole life.  The budget exceeds
  // what sensor 0 spends in the measured window of a fault-free run, so
  // it is reached only because the warm-up's energy counts too.
  const Deployment dep = exp::eval_deployment(14, kSeed);
  ProtocolConfig cfg = exp::eval_protocol_config(kSeed);
  PollingSimulation clean(dep, cfg, 20.0);
  clean.run(Time::sec(40), Time::sec(10));
  const double window_j = clean.sensor(0).meter().total_energy_j();

  cfg.faults.kill_on_battery(0, 1.1 * window_j);
  PollingSimulation sim(dep, cfg, 20.0);
  const SimulationReport r = sim.run(Time::sec(40), Time::sec(10));
  ASSERT_TRUE(r.degradation.has_value());
  EXPECT_EQ(r.degradation->deaths, 1u);
  EXPECT_EQ(r.degradation->dead_nodes, std::vector<NodeId>{0});
  EXPECT_TRUE(sim.sensor(0).dead());
}

TEST(FaultRecovery, LinkDegradationWindowDropsFrames) {
  const Deployment dep = exp::eval_deployment(14, kSeed);
  PollingSimulation clean(dep, exp::eval_protocol_config(kSeed), 20.0);
  const SimulationReport rc = clean.run(Time::sec(40), Time::sec(10));

  // Black out a first-level sensor's uplink from 15 s through the end of
  // the run.  The window must reach the end: the head keeps re-polling
  // undelivered packets, so a blackout that lifts mid-run is repaired by
  // retries and final delivery matches the clean run.
  const NodeId victim = clean.topology().first_level().front();
  ProtocolConfig cfg = exp::eval_protocol_config(kSeed);
  cfg.faults.degrade_link(victim, dep.num_sensors(), Time::sec(15),
                          Time::sec(41), 1.0);
  PollingSimulation sim(dep, cfg, 20.0);
  const SimulationReport rd = sim.run(Time::sec(40), Time::sec(10));

  ASSERT_TRUE(rd.degradation.has_value());
  EXPECT_EQ(rd.degradation->deaths, 0u);
  EXPECT_LT(rd.delivery_ratio, rc.delivery_ratio);
}

// ---------- multi-cluster stack ----------

TEST(MultiClusterFault, FieldWideDeathIsRepairedByTheOwningHead) {
  std::vector<ClusterSpec> specs;
  Rng rng(9);
  for (int i = 0; i < 2; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(10, 170.0, 60.0, rng);
    spec.origin = {i * 400.0, 0.0};
    specs.push_back(std::move(spec));
  }
  ProtocolConfig cfg;
  cfg.seed = 9;
  // Field-wide sensor id 13 = local sensor 3 of cluster 1.
  cfg.faults.kill_at(13, Time::sec(20));
  cfg.recovery.enabled = true;
  MultiClusterSimulation sim(std::move(specs), cfg,
                             InterClusterMode::kColored, 30.0);
  const MultiClusterReport rep = sim.run(Time::sec(40), Time::sec(10));

  ASSERT_TRUE(rep.degradation.has_value());
  EXPECT_EQ(rep.degradation->deaths, 1u);
  EXPECT_EQ(rep.degradation->dead_nodes, std::vector<NodeId>{13});
  EXPECT_GE(rep.degradation->replans, 1u);
  // The unaffected cluster keeps delivering.
  EXPECT_GE(rep.delivery_ratio.at(0), 0.95);
  const std::string json = obs::to_json(rep).dump();
  EXPECT_NE(json.find("\"degradation\""), std::string::npos);
}

TEST(MultiClusterFault, RepairThatOrphansEverySurvivorRunsToTheEnd) {
  // The uplink chain as the second of two clusters; its only head-heard
  // sensor is local sensor 0, field-wide id 10.
  std::vector<ClusterSpec> specs;
  Rng rng(9);
  specs.push_back({deploy_connected_uniform_square(10, 170.0, 60.0, rng),
                   {0.0, 0.0}});
  specs.push_back({uplink_chain(), {400.0, 0.0}});
  ProtocolConfig cfg;
  cfg.seed = 9;
  cfg.faults.kill_at(10, Time::sec(20));
  cfg.recovery.enabled = true;
  MultiClusterSimulation sim(std::move(specs), cfg,
                             InterClusterMode::kColored, 30.0);
  const MultiClusterReport rep = sim.run(Time::sec(40), Time::sec(10));

  ASSERT_TRUE(rep.degradation.has_value());
  const DegradationReport& deg = *rep.degradation;
  EXPECT_EQ(deg.deaths, 1u);
  EXPECT_EQ(deg.deaths_detected, 1u);
  EXPECT_EQ(deg.orphaned_sensors, 2u);
  EXPECT_EQ(deg.dead_nodes, std::vector<NodeId>{10});
  // The unaffected cluster keeps delivering.
  EXPECT_GE(rep.delivery_ratio.at(0), 0.95);
}

TEST(MultiClusterFault, DeathOutsideTheFieldIsRejectedAtConstruction) {
  // Two 10-sensor clusters: field-wide ids 0..19.
  const auto field = [] {
    std::vector<ClusterSpec> specs;
    Rng rng(9);
    for (int i = 0; i < 2; ++i)
      specs.push_back({deploy_connected_uniform_square(10, 170.0, 60.0, rng),
                       {i * 400.0, 0.0}});
    return specs;
  };
  ProtocolConfig cfg;
  cfg.seed = 9;
  cfg.faults.kill_at(20, Time::sec(20));
  EXPECT_THROW(MultiClusterSimulation(field(), cfg, InterClusterMode::kColored,
                                      30.0),
               ContractViolation);
  // The last sensor of the field is a valid target.
  ProtocolConfig last = cfg;
  last.faults = FaultPlan{};
  last.faults.kill_at(19, Time::sec(20));
  EXPECT_NO_THROW(MultiClusterSimulation(field(), last,
                                         InterClusterMode::kColored, 30.0));
}

// ---------- S-MAC baseline ----------

TEST(SmacFault, DeathSilencesTheNodeAndIsReported) {
  Rng rng(11);
  const Deployment dep = deploy_connected_uniform_square(8, 150.0, 60.0, rng);
  SmacConfig cfg;
  cfg.seed = 11;
  cfg.faults.kill_at(2, Time::sec(15));
  SmacSimulation sim(dep, cfg, 20.0);
  const SmacReport rep = sim.run(Time::sec(40), Time::sec(10));

  ASSERT_TRUE(rep.degradation.has_value());
  EXPECT_EQ(rep.degradation->deaths, 1u);
  EXPECT_EQ(rep.degradation->dead_nodes, std::vector<NodeId>{2});
  // The baseline has no explicit detection/replanning.
  EXPECT_EQ(rep.degradation->replans, 0u);
  EXPECT_TRUE(sim.node(2).dead());
  const std::string json = obs::to_json(rep).dump();
  EXPECT_NE(json.find("\"degradation\""), std::string::npos);
}

TEST(SmacFault, BatteryDeathCountsWarmupEnergy) {
  // The battery drains over the node's whole life.  The budget exceeds
  // what node 2 spends in the measured window of a fault-free run, so it
  // is reached only because the warm-up's energy counts too.
  Rng rng(11);
  const Deployment dep = deploy_connected_uniform_square(8, 150.0, 60.0, rng);
  SmacConfig cfg;
  cfg.seed = 11;
  SmacSimulation clean(dep, cfg, 20.0);
  clean.run(Time::sec(40), Time::sec(10));
  const double window_j = clean.node(2).meter().total_energy_j();

  cfg.faults.kill_on_battery(2, 1.1 * window_j);
  SmacSimulation sim(dep, cfg, 20.0);
  const SmacReport rep = sim.run(Time::sec(40), Time::sec(10));
  ASSERT_TRUE(rep.degradation.has_value());
  EXPECT_EQ(rep.degradation->deaths, 1u);
  EXPECT_EQ(rep.degradation->dead_nodes, std::vector<NodeId>{2});
  EXPECT_TRUE(sim.node(2).dead());
}

TEST(SmacFault, LinkDegradationIsRejected) {
  Rng rng(12);
  const Deployment dep = deploy_connected_uniform_square(6, 150.0, 60.0, rng);
  SmacConfig cfg;
  cfg.faults.degrade_link(0, 1, Time::sec(1), Time::sec(2), 0.5);
  EXPECT_THROW(SmacSimulation(dep, cfg, 20.0), ContractViolation);
}

}  // namespace
}  // namespace mhp
