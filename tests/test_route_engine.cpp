// RoutingEngine determinism contract: long-lived engines, chained
// repairs and parallel per-cluster solves must all produce byte-identical
// results to a fresh single-threaded engine, and to a min-max-load
// reference built on the independent adjacency-list max-flow stack in
// reference_flow.hpp.  The Newton δ-search must climb to δ* from below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/route_repair.hpp"
#include "core/routing.hpp"
#include "exp/fig_common.hpp"
#include "net/deployment.hpp"
#include "obs/profiler.hpp"
#include "reference_flow.hpp"
#include "route/flow_graph.hpp"
#include "route/routing_engine.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

using route::ClusterRouteJob;
using route::FlowGraph;
using route::RoutingEngine;

// Full-fidelity serialization of a solver result: any divergence in
// paths, per-path units or loads shows up as a string mismatch.
std::string fingerprint(const MinMaxLoadResult& r) {
  std::ostringstream out;
  out << "feasible=" << r.feasible << " max_load=" << r.max_load << "\n";
  for (std::size_t s = 0; s < r.paths.size(); ++s) {
    out << s << " load=" << r.load[s] << ":";
    for (const UnitPath& p : r.paths[s]) {
      out << " [";
      for (NodeId hop : p.hops) out << hop << ",";
      out << "]x" << p.units;
    }
    out << "\n";
  }
  return out.str();
}

std::string fingerprint(const RelayPlan& plan) {
  std::ostringstream out;
  out << "max_load=" << plan.max_load() << "\n";
  for (std::size_t s = 0; s < plan.num_sensors(); ++s) {
    out << s << " load=" << plan.load(s) << ":";
    for (const UnitPath& p : plan.paths(s)) {
      out << " [";
      for (NodeId hop : p.hops) out << hop << ",";
      out << "]x" << p.units;
    }
    out << "\n";
  }
  return out.str();
}

ClusterTopology eval_topology(std::size_t sensors, std::uint64_t seed) {
  return disc_topology(exp::eval_deployment(sensors, seed),
                       exp::kSensorRange);
}

MinMaxLoadResult legacy_balanced(const ClusterTopology& topo,
                                 const std::vector<std::int64_t>& demand,
                                 const std::vector<std::int64_t>& weight);

// ---------- long-lived engine vs fresh engine ----------

TEST(RouteEngine, WarmMatchesColdAndLegacyOnFixedDeployments) {
  // One engine lives across every solve; each solve also runs on a fresh
  // engine and through the reference.
  RoutingEngine reused;
  for (std::size_t sensors : {14u, 40u, 120u}) {
    for (std::uint64_t seed : {1u, 2u}) {
      const ClusterTopology topo = eval_topology(sensors, seed);
      const std::vector<std::int64_t> demand(sensors, 1);

      RoutingEngine fresh;
      const std::string reused_fp =
          fingerprint(reused.solve_balanced(topo, demand));
      EXPECT_EQ(reused_fp, fingerprint(fresh.solve_balanced(topo, demand)))
          << "sensors=" << sensors << " seed=" << seed;
      const std::vector<std::int64_t> unit(sensors, 1);
      EXPECT_EQ(reused_fp, fingerprint(legacy_balanced(topo, demand, unit)))
          << "sensors=" << sensors << " seed=" << seed;
    }
  }
}

TEST(RouteEngine, WarmMatchesColdWithWeights) {
  const ClusterTopology topo = eval_topology(40, 3);
  std::vector<std::int64_t> demand(40, 1);
  std::vector<std::int64_t> weight(40);
  for (std::size_t s = 0; s < weight.size(); ++s) weight[s] = 1 + s % 3;

  // The long-lived engine solves the unweighted instance first.
  RoutingEngine reused;
  reused.solve_balanced(topo, demand);
  RoutingEngine fresh;
  const std::string reused_fp =
      fingerprint(reused.solve_balanced(topo, demand, weight));
  EXPECT_EQ(reused_fp, fingerprint(fresh.solve_balanced(topo, demand, weight)));
  EXPECT_EQ(reused_fp, fingerprint(legacy_balanced(topo, demand, weight)));
}

TEST(RouteEngine, ReusedEngineMatchesFreshEnginePerSolve) {
  RoutingEngine reused;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ClusterTopology topo = eval_topology(30, seed);
    const std::vector<std::int64_t> demand(30, 1);
    RoutingEngine fresh;
    EXPECT_EQ(fingerprint(reused.solve_balanced(topo, demand)),
              fingerprint(fresh.solve_balanced(topo, demand)))
        << "seed=" << seed;
    EXPECT_EQ(fingerprint(reused.solve_shortest(topo, demand)),
              fingerprint(fresh.solve_shortest(topo, demand)))
        << "seed=" << seed;
  }
}

TEST(RouteEngine, EmptyClusterIsFeasibleWithZeroLoad) {
  const ClusterTopology topo(Graph(0), {});
  RoutingEngine engine;
  for (RoutingPolicy policy :
       {RoutingPolicy::kBalancedMaxFlow, RoutingPolicy::kShortestPath}) {
    const MinMaxLoadResult r = engine.solve(policy, topo, {});
    EXPECT_TRUE(r.feasible) << "policy=" << static_cast<int>(policy);
    EXPECT_EQ(r.max_load, 0) << "policy=" << static_cast<int>(policy);
    EXPECT_TRUE(r.paths.empty());
    EXPECT_TRUE(r.load.empty());
  }
}

TEST(RouteEngine, SearchStatsBoundDeltaStar) {
  const ClusterTopology topo = eval_topology(60, 5);
  const std::vector<std::int64_t> demand(60, 1);
  RoutingEngine engine;
  const MinMaxLoadResult result = engine.solve_balanced(topo, demand);
  ASSERT_TRUE(result.feasible);
  const route::SolveStats& stats = engine.last_stats();
  EXPECT_GE(stats.probes, 1);
  EXPECT_GE(stats.delta_lower_bound, 1);
  EXPECT_LE(stats.delta_lower_bound, stats.delta_star);
  EXPECT_EQ(stats.delta_star, result.max_load);
}

// ---------- the Newton δ-search ----------

TEST(RouteEngine, ProbesClimbToDeltaStarFromBelow) {
  // A disc field at 1000 m² a sensor whose analytic floor is below δ*:
  // the first probe's min cut must send the second straight to δ*.
  constexpr std::size_t kSensors = 2000;
  Rng rng(101);
  const ClusterTopology topo = disc_topology(
      deploy_connected_uniform_square(
          kSensors, std::sqrt(1000.0 * static_cast<double>(kSensors)), 60.0,
          rng),
      60.0);
  const std::vector<std::int64_t> demand(kSensors, 3);

  obs::Profiler& prof = obs::Profiler::instance();
  prof.disable();
  prof.drain();
  prof.enable();
  RoutingEngine engine;
  const MinMaxLoadResult got = engine.solve_balanced(topo, demand);
  prof.disable();
  const obs::ProfileData data = prof.drain();

  const auto counter = [](const obs::ProfileEvent& ev, const char* name) {
    for (const auto& c : ev.counters)
      if (c.name != nullptr && std::string(c.name) == name)
        return static_cast<std::int64_t>(c.value);
    ADD_FAILURE() << "probe span without counter " << name;
    return std::int64_t{-1};
  };
  std::vector<std::int64_t> deltas;
  std::vector<std::int64_t> feasible;
  for (const obs::ProfileEvent& ev : data.events)
    if (data.paths.at(ev.path) == "route/solve_balanced/route/probe") {
      deltas.push_back(counter(ev, "delta"));
      feasible.push_back(counter(ev, "feasible"));
    }

  ASSERT_TRUE(got.feasible);
  ASSERT_EQ(engine.last_stats().probes, 2);
  ASSERT_EQ(deltas.size(), 2u);
  for (std::size_t i = 1; i < deltas.size(); ++i)
    EXPECT_GT(deltas[i], deltas[i - 1]) << "probe " << i;
  for (std::size_t i = 0; i + 1 < feasible.size(); ++i)
    EXPECT_EQ(feasible[i], 0) << "probe " << i;
  EXPECT_EQ(feasible.back(), 1);
  EXPECT_EQ(deltas.back(), got.max_load);
  EXPECT_EQ(deltas.front(), engine.last_stats().delta_lower_bound);
  EXPECT_EQ(engine.last_stats().delta_star, got.max_load);
  const std::vector<std::int64_t> unit(kSensors, 1);
  EXPECT_EQ(fingerprint(got), fingerprint(legacy_balanced(topo, demand, unit)));
}

// ---------- replans across fault → repair ----------

// Pick a victim that actually carries relayed load so the repair is a
// real re-solve, not a no-op.
NodeId loaded_victim(const RelayPlan& plan) {
  for (NodeId s = 0; s < plan.num_sensors(); ++s)
    if (plan.load(s) > 1) return s;
  return 0;
}

TEST(RouteEngine, WarmHintedReplanMatchesColdReplan) {
  const ClusterTopology topo = eval_topology(40, 7);
  const std::vector<std::int64_t> demand(40, 1);
  RoutingEngine engine;
  const RelayPlan plan(topo, engine.solve_balanced(topo, demand));
  const NodeId victim = loaded_victim(plan);

  // The engine that solved set-up repairs the plan (the production path)
  // vs a repair on its own fresh engine: identical plans, loads and
  // orphan sets.
  const RouteRepair reused = repair_routes(
      topo, {victim}, demand, RoutingPolicy::kBalancedMaxFlow, &engine);
  const RouteRepair fresh =
      repair_routes(topo, {victim}, demand, RoutingPolicy::kBalancedMaxFlow);
  EXPECT_EQ(fingerprint(reused.plan), fingerprint(fresh.plan));
  EXPECT_EQ(reused.orphaned, fresh.orphaned);
  EXPECT_NE(fingerprint(reused.plan), fingerprint(plan))
      << "the repair changed nothing; victim=" << victim;
}

TEST(RouteEngine, ChainedReplansMatchColdAcrossDeathSequence) {
  const ClusterTopology topo = eval_topology(40, 9);
  const std::vector<std::int64_t> demand(40, 1);
  const RelayPlan plan = RelayPlan::balanced(topo, demand);

  // Two successive deaths repaired on one engine, mirroring
  // ClusterStack::replan's chaining, vs fresh repairs.
  const NodeId first = loaded_victim(plan);
  RoutingEngine engine;
  const RouteRepair step1 = repair_routes(
      topo, {first}, demand, RoutingPolicy::kBalancedMaxFlow, &engine);
  EXPECT_EQ(fingerprint(step1.plan),
            fingerprint(repair_routes(topo, {first}, demand,
                                      RoutingPolicy::kBalancedMaxFlow)
                            .plan));
  const NodeId second = loaded_victim(step1.plan) != first
                            ? loaded_victim(step1.plan)
                            : (first + 1) % 40;
  const std::vector<NodeId> dead = {first, second};
  const RouteRepair reused = repair_routes(
      topo, dead, demand, RoutingPolicy::kBalancedMaxFlow, &engine);
  const RouteRepair fresh =
      repair_routes(topo, dead, demand, RoutingPolicy::kBalancedMaxFlow);
  EXPECT_EQ(fingerprint(reused.plan), fingerprint(fresh.plan));
  EXPECT_EQ(reused.orphaned, fresh.orphaned);
}

// ---------- parallel per-cluster solves ----------

TEST(RouteEngineParallel, SolveClustersDeterministicAcrossWorkers) {
  std::vector<ClusterTopology> topos;
  std::vector<ClusterRouteJob> jobs;
  for (std::uint64_t seed = 0; seed < 6; ++seed)
    topos.push_back(eval_topology(20 + 5 * seed, seed));
  for (std::size_t c = 0; c < topos.size(); ++c) {
    ClusterRouteJob job;
    job.topo = &topos[c];
    job.demand.assign(topos[c].num_sensors(), 1);
    if (c == 4) {  // one weighted job
      job.weight.assign(topos[c].num_sensors(), 1);
      job.weight[0] = 3;
    }
    if (c == 5) job.routing = RoutingPolicy::kShortestPath;  // one baseline job
    jobs.push_back(std::move(job));
  }

  const std::vector<MinMaxLoadResult> serial = route::solve_clusters(jobs, 1);
  ASSERT_EQ(serial.size(), jobs.size());
  for (std::size_t workers : {8u, 0u}) {  // 0 = hardware concurrency
    const std::vector<MinMaxLoadResult> parallel =
        route::solve_clusters(jobs, workers);
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t c = 0; c < jobs.size(); ++c)
      EXPECT_EQ(fingerprint(serial[c]), fingerprint(parallel[c]))
          << "workers=" << workers << " cluster=" << c;
  }

  // And each slot matches an independent single-problem engine solve.
  for (std::size_t c = 0; c < jobs.size(); ++c) {
    RoutingEngine engine;
    EXPECT_EQ(fingerprint(serial[c]),
              fingerprint(engine.solve(jobs[c].routing, *jobs[c].topo,
                                       jobs[c].demand, jobs[c].weight)))
        << "cluster=" << c;
  }
}

TEST(RouteParallel, SingleJobSolveClustersHandsWorkersToProbes) {
  // A batch of one job takes the same per-job path at any worker count.
  const ClusterTopology topo = eval_topology(70, 13);
  ClusterRouteJob job;
  job.topo = &topo;
  job.demand.assign(70, 1);
  std::vector<ClusterRouteJob> jobs;
  jobs.push_back(std::move(job));

  const auto serial = route::solve_clusters(jobs, 1);
  ASSERT_EQ(serial.size(), 1u);
  for (std::size_t workers : {4u, 8u, 0u}) {
    const auto par = route::solve_clusters(jobs, workers);
    ASSERT_EQ(par.size(), 1u);
    EXPECT_EQ(fingerprint(serial[0]), fingerprint(par[0]))
        << "workers=" << workers;
  }
}

TEST(RouteEngineParallel, ScenarioReportByteIdenticalAcrossWorkers) {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kMultiCluster);
  s.deployment.n_sensors = 12;
  s.run.duration = Time::sec(10);
  s.run.warmup = Time::sec(2);
  s.run.record_perf = false;

  s.route_workers = 1;
  const std::string serial = scenario::run_scenario(s).dump();
  s.route_workers = 8;
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
  s.route_workers = 0;  // hardware concurrency
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
}

TEST(RouteParallel, PollingScenarioReportByteIdenticalAcrossRouteWorkers) {
  // The polling stack routes its one cluster serially whatever the value.
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kPolling);
  s.deployment.n_sensors = 16;
  s.run.duration = Time::sec(10);
  s.run.warmup = Time::sec(2);
  s.run.record_perf = false;

  s.route_workers = 1;
  const std::string serial = scenario::run_scenario(s).dump();
  s.route_workers = 8;
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
  s.route_workers = 0;  // hardware concurrency
  EXPECT_EQ(serial, scenario::run_scenario(s).dump());
}

// ---------- FlowGraph slot layout ----------

struct StagedArc {
  int from, to;
  FlowGraph::Cap cap;
};

/// Random multigraph with self-loops and parallel arcs, staged in order.
std::vector<StagedArc> random_arcs(Rng& rng, int nodes, int count) {
  std::vector<StagedArc> arcs;
  for (int k = 0; k < count; ++k)
    arcs.push_back({static_cast<int>(rng.below(nodes)),
                    static_cast<int>(rng.below(nodes)),
                    static_cast<FlowGraph::Cap>(rng.below(10))});
  return arcs;
}

std::vector<std::int32_t> build(FlowGraph& g, int nodes,
                                const std::vector<StagedArc>& arcs) {
  g.reset(nodes);
  for (std::size_t k = 0; k < arcs.size(); ++k)
    EXPECT_EQ(g.add_arc(arcs[k].from, arcs[k].to, arcs[k].cap),
              static_cast<int>(k));
  const auto ids = g.build_csr();
  return {ids.begin(), ids.end()};
}

TEST(FlowGraph, SlotLayoutKeepsTwinsAndInsertionOrder) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const int nodes = 1 + static_cast<int>(rng.below(12));
    const auto arcs = random_arcs(rng, nodes, static_cast<int>(rng.below(40)));
    FlowGraph g;
    const std::vector<std::int32_t> ids = build(g, nodes, arcs);
    ASSERT_EQ(g.num_arcs(), static_cast<int>(2 * arcs.size()));

    // Each staged arc keeps its endpoints and capacity; its twin is the
    // reversed residual arc, and twin() is an involution.
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      const int e = ids[k];
      EXPECT_TRUE(g.is_forward(e));
      EXPECT_EQ(g.arc_from(e), arcs[k].from);
      EXPECT_EQ(g.arc_to(e), arcs[k].to);
      EXPECT_EQ(g.capacity(e), arcs[k].cap);
      EXPECT_EQ(g.residual(e), arcs[k].cap);
      const int r = g.twin(e);
      EXPECT_FALSE(g.is_forward(r));
      EXPECT_EQ(g.capacity(r), 0);
      EXPECT_EQ(g.residual(r), 0);
    }
    for (int e = 0; e < g.num_arcs(); ++e) {
      EXPECT_NE(g.twin(e), e);
      EXPECT_EQ(g.twin(g.twin(e)), e);
      EXPECT_EQ(g.arc_from(g.twin(e)), g.arc_to(e));
      EXPECT_EQ(g.arc_to(g.twin(e)), g.arc_from(e));
      EXPECT_NE(g.is_forward(e), g.is_forward(g.twin(e)));
    }

    // Node ranges tile [0, num_arcs) in node order, and each lists the
    // node's arcs in staging order, a forward arc before its own twin.
    std::vector<std::vector<int>> expected(static_cast<std::size_t>(nodes));
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      expected[static_cast<std::size_t>(arcs[k].from)].push_back(ids[k]);
      expected[static_cast<std::size_t>(arcs[k].to)].push_back(
          g.twin(ids[k]));
    }
    int next = 0;
    for (int v = 0; v < nodes; ++v) {
      const FlowGraph::ArcRange range = g.arcs_out(v);
      EXPECT_EQ(range.first, next);
      next = range.last;
      std::vector<int> listed;
      for (const int e : range) {
        EXPECT_EQ(g.arc_from(e), v);
        listed.push_back(e);
      }
      EXPECT_EQ(listed, expected[static_cast<std::size_t>(v)]) << "v=" << v;
      ASSERT_EQ(range.size(), listed.size());
      for (std::size_t i = 0; i < range.size(); ++i)
        EXPECT_EQ(range[i], listed[i]);
    }
    EXPECT_EQ(next, g.num_arcs());
  }
}

/// Push a random amount along random out-arcs from `v`, stopping at the
/// first arc without residual capacity.
void push_random_walk(Rng& rng, FlowGraph& g, int v) {
  for (int hop = 0; hop < 6; ++hop) {
    const auto range = g.arcs_out(v);
    if (range.size() == 0) return;
    const int e = range[rng.below(range.size())];
    if (g.residual(e) == 0) return;
    g.push(e, 1 + static_cast<FlowGraph::Cap>(rng.below(
                      static_cast<std::uint64_t>(g.residual(e)))));
    v = g.arc_to(e);
  }
}

TEST(FlowGraph, SaveInstallRoundTripsAndRequiresHold) {
  Rng rng(12);
  for (int round = 0; round < 20; ++round) {
    const int nodes = 2 + static_cast<int>(rng.below(10));
    const auto arcs =
        random_arcs(rng, nodes, 1 + static_cast<int>(rng.below(40)));
    FlowGraph g;
    const std::vector<std::int32_t> ids = build(g, nodes, arcs);
    for (int w = 0; w < 30; ++w)
      push_random_walk(rng, g, static_cast<int>(rng.below(nodes)));

    for (int e = 0; e < g.num_arcs(); ++e) {
      EXPECT_EQ(g.twin_residual(e), g.residual(g.twin(e)));
      EXPECT_EQ(g.flow(e), -g.flow(g.twin(e)));
      EXPECT_GE(g.residual(e), 0);
    }

    // A raised capacity takes effect at clear_flow, which zeroes every
    // flow; the twin's residual still reads from the arc's own slot.
    const int e0 = ids[0];
    g.set_capacity(e0, g.capacity(e0) + 5);
    g.clear_flow();
    for (int e = 0; e < g.num_arcs(); ++e) {
      EXPECT_EQ(g.flow(e), 0);
      EXPECT_EQ(g.residual(e), g.capacity(e));
      EXPECT_EQ(g.twin_residual(e), g.residual(g.twin(e)));
    }
    EXPECT_EQ(g.capacity(e0), arcs[0].cap + 5);

    // Contract checks.
    EXPECT_THROW(g.set_capacity(g.twin(e0), 1), ContractViolation);
    EXPECT_THROW(g.set_capacity(g.num_arcs(), 1), ContractViolation);
    EXPECT_THROW(g.set_capacity(e0, -1), ContractViolation);
    EXPECT_THROW(g.push(e0, g.residual(e0) + 1), ContractViolation);
    EXPECT_THROW(g.push(-1, 0), ContractViolation);
  }
  FlowGraph frozen;
  frozen.reset(2);
  frozen.add_arc(0, 1, 1);
  frozen.build_csr();
  EXPECT_THROW(frozen.add_arc(0, 1, 1), ContractViolation);
  EXPECT_THROW(frozen.build_csr(), ContractViolation);
}

// ---------- differential: engine vs the legacy max-flow stack ----------

/// Min-max-load reference on the adjacency-list reference::FlowNetwork
/// and reference::max_flow (forward-level Dinic): the engine's
/// §III-A network in the engine's arc order, the smallest feasible δ by
/// bisection, one from-zero max flow at δ*, and the engine's
/// decomposition rules (cancel flow cycles, then walk each unit along
/// the first arc with flow left).
MinMaxLoadResult legacy_balanced(const ClusterTopology& topo,
                                 const std::vector<std::int64_t>& demand,
                                 const std::vector<std::int64_t>& weight) {
  using reference::FlowNetwork;
  using Cap = FlowNetwork::Cap;
  const std::size_t n = topo.num_sensors();
  MinMaxLoadResult result;
  result.paths.assign(n, {});
  result.load.assign(n, 0);
  const Cap total = std::accumulate(demand.begin(), demand.end(), Cap{0});
  if (total == 0) {
    result.feasible = true;
    return result;
  }
  for (NodeId s = 0; s < n; ++s)
    if (demand[s] > 0 && topo.level(s) == ClusterTopology::kUnreachable)
      return result;

  const int source = 0;
  const int sink = 1;
  const auto input = [](NodeId s) { return 2 + 2 * static_cast<int>(s); };
  const auto output = [](NodeId s) { return 3 + 2 * static_cast<int>(s); };
  FlowNetwork net;
  net.add_nodes(2 + 2 * static_cast<int>(n));
  std::vector<int> capacity_arc(n);
  for (NodeId s = 0; s < n; ++s) {
    if (demand[s] > 0) net.add_arc(source, input(s), demand[s]);
    capacity_arc[s] = net.add_arc(input(s), output(s), weight[s]);
    if (topo.head_hears(s))
      net.add_arc(output(s), sink, FlowNetwork::kInfinite);
  }
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b : topo.sensor_links().neighbors(a))
      net.add_arc(output(a), input(b), FlowNetwork::kInfinite);

  const auto feasible_at = [&](Cap delta) {
    for (NodeId s = 0; s < n; ++s)
      net.set_capacity_and_reset(capacity_arc[s], delta * weight[s]);
    return reference::max_flow(net, source, sink) == total;
  };
  Cap lo = 1;
  Cap hi = total;
  while (lo < hi) {
    const Cap mid = lo + (hi - lo) / 2;
    if (feasible_at(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  EXPECT_TRUE(feasible_at(hi));  // leaves the from-zero flow at δ*
  result.feasible = true;
  result.max_load = hi;

  const int nodes = net.num_nodes();
  std::vector<Cap> remaining(static_cast<std::size_t>(net.num_arcs()), 0);
  for (int e = 0; e < net.num_arcs(); e += 2)
    remaining[static_cast<std::size_t>(e)] = net.flow(e);
  const auto flows = [&](int e) {
    return e % 2 == 0 && remaining[static_cast<std::size_t>(e)] > 0;
  };

  // Cycle cancelling: DFS from each node in id order; the first arc back
  // into the DFS stack closes a cycle, whose minimum is removed, and the
  // search starts over.
  std::vector<int> color(static_cast<std::size_t>(nodes));
  std::vector<int> entry(static_cast<std::size_t>(nodes));
  std::function<bool(int)> dfs = [&](int v) {
    for (const int e : net.arcs_out(v)) {
      if (!flows(e)) continue;
      const int w = net.arc_to(e);
      if (color[static_cast<std::size_t>(w)] == 1) {
        std::vector<int> cycle{e};
        for (int u = v; u != w; u = net.arc_from(entry[u]))
          cycle.push_back(entry[u]);
        Cap m = FlowNetwork::kInfinite;
        for (const int ce : cycle)
          m = std::min(m, remaining[static_cast<std::size_t>(ce)]);
        for (const int ce : cycle) remaining[static_cast<std::size_t>(ce)] -= m;
        return true;
      }
      if (color[static_cast<std::size_t>(w)] == 0) {
        color[static_cast<std::size_t>(w)] = 1;
        entry[static_cast<std::size_t>(w)] = e;
        if (dfs(w)) return true;
      }
    }
    color[static_cast<std::size_t>(v)] = 2;
    return false;
  };
  for (bool cancelled = true; cancelled;) {
    cancelled = false;
    std::fill(color.begin(), color.end(), 0);
    for (int root = 0; root < nodes && !cancelled; ++root) {
      if (color[static_cast<std::size_t>(root)] != 0) continue;
      color[static_cast<std::size_t>(root)] = 1;
      cancelled = dfs(root);
    }
  }

  std::vector<std::size_t> cursor(static_cast<std::size_t>(nodes), 0);
  for (NodeId s = 0; s < n; ++s) {
    for (Cap left = demand[s]; left > 0; --left) {
      std::vector<NodeId> hops{s};
      for (int v = input(s); v != sink;) {
        const auto& arcs = net.arcs_out(v);
        std::size_t& c = cursor[static_cast<std::size_t>(v)];
        while (c < arcs.size() && !flows(arcs[c])) ++c;
        if (c == arcs.size()) {
          ADD_FAILURE() << "legacy decomposition stuck";
          return result;
        }
        const int e = arcs[c];
        remaining[static_cast<std::size_t>(e)] -= 1;
        v = net.arc_to(e);
        if (v >= 2 && v % 2 == 0 && v != input(s))
          hops.push_back(static_cast<NodeId>((v - 2) / 2));
      }
      hops.push_back(topo.head());
      auto& list = result.paths[s];
      auto it = std::find_if(list.begin(), list.end(), [&](const UnitPath& p) {
        return p.hops == hops;
      });
      if (it != list.end())
        it->units += 1;
      else
        list.push_back(UnitPath{std::move(hops), 1});
    }
  }
  for (const auto& plist : result.paths)
    for (const UnitPath& p : plist)
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i)
        result.load[p.hops[i]] += p.units;
  return result;
}

struct RandomInstance {
  ClusterTopology topo;
  std::vector<std::int64_t> demand;
  std::vector<std::int64_t> weight;
};

/// Random cluster: Erdős–Rényi sensor links, a random head-heard set
/// (possibly empty, so some sensors are unreachable), demand 0..3 and
/// weight 1..3.  Unless `keep_stranded`, unreachable sensors get zero
/// demand so the instance stays feasible.
RandomInstance random_instance(Rng& rng, std::size_t n, bool keep_stranded) {
  Graph links(n);
  const double p = rng.uniform(0.03, 0.4);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b)
      if (rng.uniform() < p) links.add_edge(a, b);
  std::vector<bool> hears(n);
  const double q = rng.uniform(0.0, 0.5);
  for (NodeId s = 0; s < n; ++s) hears[s] = rng.uniform() < q;
  RandomInstance inst{ClusterTopology(std::move(links), std::move(hears)),
                      std::vector<std::int64_t>(n),
                      std::vector<std::int64_t>(n)};
  for (NodeId s = 0; s < n; ++s) {
    inst.demand[s] = static_cast<std::int64_t>(rng.below(4));
    inst.weight[s] = 1 + static_cast<std::int64_t>(rng.below(3));
    if (!keep_stranded &&
        inst.topo.level(s) == ClusterTopology::kUnreachable)
      inst.demand[s] = 0;
  }
  return inst;
}

/// The same sensors after a fault: each link survives with probability
/// 0.8, the head loses a few sensors and some demands change.
RandomInstance perturbed(Rng& rng, const RandomInstance& base) {
  const std::size_t n = base.topo.num_sensors();
  Graph links(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b : base.topo.sensor_links().neighbors(a))
      if (a < b && rng.uniform() < 0.8) links.add_edge(a, b);
  std::vector<bool> hears(n);
  for (NodeId s = 0; s < n; ++s)
    hears[s] = base.topo.head_hears(s) && rng.uniform() < 0.9;
  RandomInstance inst{ClusterTopology(std::move(links), std::move(hears)),
                      base.demand, base.weight};
  for (NodeId s = 0; s < n; ++s) {
    if (rng.uniform() < 0.2)
      inst.demand[s] = static_cast<std::int64_t>(rng.below(4));
    if (inst.topo.level(s) == ClusterTopology::kUnreachable)
      inst.demand[s] = 0;
  }
  return inst;
}

TEST(RouteEngine, MatchesLegacyMaxFlowOnRandomTopologies) {
  // One long-lived engine (reuse across solves is part of what is under
  // test) and a fresh engine per round.
  RoutingEngine reused;

  Rng rng(20261017);
  int feasible = 0, infeasible = 0, stranded = 0, multi_path = 0;
  for (int round = 0; round < 240; ++round) {
    const std::size_t n = 1 + rng.below(40);
    const RandomInstance inst = random_instance(rng, n, round % 4 == 0);
    const RandomInstance after = perturbed(rng, inst);
    for (NodeId s = 0; s < n; ++s)
      if (inst.topo.level(s) == ClusterTopology::kUnreachable) {
        ++stranded;
        break;
      }

    const MinMaxLoadResult reference =
        legacy_balanced(inst.topo, inst.demand, inst.weight);
    const MinMaxLoadResult replan_reference =
        legacy_balanced(after.topo, after.demand, after.weight);
    RoutingEngine fresh;
    RoutingEngine* const engines[] = {&reused, &fresh};
    for (std::size_t c = 0; c < std::size(engines); ++c) {
      RoutingEngine& engine = *engines[c];
      const std::string where = "round=" + std::to_string(round) +
                                (c == 0 ? " reused" : " fresh");
      const MinMaxLoadResult got =
          engine.solve_balanced(inst.topo, inst.demand, inst.weight);
      ASSERT_EQ(fingerprint(got), fingerprint(reference)) << where;
      if (c == 0) {
        (got.feasible ? feasible : infeasible) += 1;
        for (const auto& plist : got.paths)
          if (plist.size() > 1) {
            ++multi_path;
            break;
          }
      }

      // Replan after the fault on the same engine.
      const MinMaxLoadResult replan =
          engine.solve_balanced(after.topo, after.demand, after.weight);
      ASSERT_EQ(fingerprint(replan), fingerprint(replan_reference))
          << where << " (replan)";
    }
  }
  // The generator reaches every case the test is meant to cover.
  EXPECT_GE(feasible, 150);
  EXPECT_GE(infeasible, 20);
  EXPECT_GE(stranded, 60);
  EXPECT_GE(multi_path, 50);
}

}  // namespace
}  // namespace mhp
