// RoutingEngine: single owner of the min-max-load routing stack — flow
// network construction, scratch arenas, δ-search and flow decomposition
// (paper §III-A).
//
// Each sensor i becomes an input node iᵢ and output node oᵢ with an arc
// iᵢ→oᵢ of capacity δ·wᵢ (wᵢ = relative node capacity, all 1 unless sensor
// energy levels differ).  Sensor links become uncapacitated oᵢ→iⱼ arcs;
// first-level sensors get oᵢ→t; a super-source feeds each iᵢ with that
// sensor's per-cycle packet demand.  The smallest δ whose max-flow equals
// total demand is the minimized maximum sensor load; decomposing the flow
// yields each sensor's relaying paths with per-path flow units (used by
// multiple-path rotation, §V-D).
//
// The δ-search is one serial gallop-then-bisect over Dinic max-flow
// probes, starting at an analytic floor (level cuts and per-sensor demand
// bounds, never above δ*).  On top of the plain search:
//   * warm-start δ-probes — each feasibility probe augments the best flow
//     found at a smaller δ instead of re-solving from zero.  Probes only
//     answer "is δ feasible?" (the max-flow *value* at a given δ is
//     unique, the assignment is not); the path decomposition always comes
//     from one final from-zero solve at δ*, which is exactly the flow the
//     cold search decomposed.  That is the determinism contract.
//   * warm hints — a surviving RelayPlan can seed the first probe of a
//     post-fault replan with its still-valid unit paths.  Hints only
//     pre-load flow for feasibility probes, so they never change results.
//   * reusable arenas — the CSR graph, BFS/DFS scratch and flow snapshots
//     persist across solves on the same engine.
//
// Engines are cheap to construct and NOT thread-safe; for parallel
// per-cluster routing use solve_clusters(), which gives each job its own
// engine and writes results into per-cluster slots (deterministic for any
// worker count because each solve is a pure function of its job).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "route/flow_graph.hpp"

namespace mhp {

/// One relaying path: hops[0] is the originating sensor, subsequent hops
/// are relays, hops.back() is the cluster head.  `units` is the flow the
/// path carries (packets per cycle routed this way).
struct UnitPath {
  std::vector<NodeId> hops;
  std::int64_t units = 0;

  std::size_t hop_count() const { return hops.size() - 1; }
};

/// How the head computes relaying paths.  The paper's scheme is the
/// min-max-load max-flow routing (§III-A); hop-count shortest paths are
/// the ablation baseline whose worst relay carries measurably more load.
enum class RoutingPolicy {
  kBalancedMaxFlow,
  kShortestPath,
};

struct MinMaxLoadResult {
  bool feasible = false;
  /// δ*: the minimized maximum sensor load (packets sent per cycle,
  /// own + relayed), scaled by node weight where weights differ.
  std::int64_t max_load = 0;
  /// paths[s]: the relaying paths carrying sensor s's demand (empty for
  /// zero-demand sensors).
  std::vector<std::vector<UnitPath>> paths;
  /// load[s]: packets sensor s transmits per cycle (own + relayed).
  std::vector<std::int64_t> load;
};

}  // namespace mhp

namespace mhp::route {

struct SolvePolicy {
  /// Reuse flow between δ-probes (results are identical either way; cold
  /// mode exists for equivalence tests and perf comparisons).
  bool warm_start = true;
};

/// Counters from the most recent solve_balanced (zeroed for trivially
/// feasible/infeasible instances and for solve_shortest).
struct SolveStats {
  int probes = 0;       // δ feasibility probes run
  int cold_solves = 0;  // from-zero max-flow runs (probes + the final one)
  std::int64_t delta_lower_bound = 0;  // δ floor the search began at
  std::int64_t delta_star = 0;  // winning δ (== result.max_load)
  std::int64_t hint_units = 0;  // flow pre-seeded from a warm hint
  // Max-flow work over every probe and the final solve.
  std::int64_t phases = 0;         // BFS runs, the last one finding no path
  std::int64_t augmentations = 0;  // augmenting paths pushed
  std::int64_t arc_scans = 0;      // out-arcs of every node a BFS dequeued
};

class RoutingEngine {
 public:
  explicit RoutingEngine(SolvePolicy policy = {}) : policy_(policy) {}
  RoutingEngine(RoutingEngine&&) = delete;

  /// Min-max-load routing (search over δ with max-flow probes).
  /// `demand[s]` >= 0 packets per duty cycle.  `weight[s]` (optional,
  /// default all-1) scales sensor s's capacity: sensors with more energy
  /// may carry proportionally more load.
  MinMaxLoadResult solve_balanced(const ClusterTopology& topo,
                                  const std::vector<std::int64_t>& demand,
                                  const std::vector<std::int64_t>& weight = {});

  /// Baseline for the routing ablation: BFS shortest-path (min hop)
  /// routing, parents chosen arbitrarily (lowest id).  Same result shape.
  MinMaxLoadResult solve_shortest(const ClusterTopology& topo,
                                  const std::vector<std::int64_t>& demand);

  /// solve_shortest for kShortestPath, else solve_balanced.
  MinMaxLoadResult solve(RoutingPolicy policy, const ClusterTopology& topo,
                         const std::vector<std::int64_t>& demand,
                         const std::vector<std::int64_t>& weight = {});

  /// Seed the NEXT solve_balanced's first δ-probe with the unit paths of a
  /// previous solution (e.g. the surviving flow after a fault).  Paths
  /// with dead hops/links are skipped; the hint is consumed by that solve.
  /// The pointee must stay alive until then.  Never changes results.
  void set_warm_hint(const std::vector<std::vector<UnitPath>>* hint) {
    hint_ = hint;
  }

  const SolveStats& last_stats() const { return stats_; }

 private:
  using Cap = FlowGraph::Cap;

  /// Dinic max-flow scratch: augments whatever flow is installed on g to
  /// a maximum flow and returns the value pushed.  The counters describe
  /// the latest augment() call.
  struct MaxFlowWork {
    std::vector<std::int32_t> level;  // residual distances to the sink
    std::vector<std::int32_t> queue;
    std::vector<std::uint32_t> iter;
    std::vector<std::int32_t> path;  // DFS arc stack, source first
    std::int64_t phases = 0;
    std::int64_t augmentations = 0;
    std::int64_t arc_scans = 0;

    Cap augment(FlowGraph& g);
    /// Attach the latest augment()'s counters to the innermost open
    /// profiler span.
    void count_span() const;
    void add_to(SolveStats& stats) const;

   private:
    bool bfs(const FlowGraph& g);
    Cap blocking_flow(FlowGraph& g);
  };

  void build_network(const ClusterTopology& topo, const std::vector<Cap>& demand,
                     const std::vector<Cap>& weight);
  Cap prime_from_hint(const std::vector<std::vector<UnitPath>>& hint);
  int find_link_arc(NodeId a, NodeId b) const;

  /// Analytic δ floor: per-level cut bounds (all demand from level ≥ L
  /// crosses the level-L sensors; L = 1 is the head cut) and per-sensor
  /// demand bounds.  Never above δ*.
  Cap analytic_floor(const ClusterTopology& topo,
                     const std::vector<Cap>& demand) const;

  /// The δ-search.  Returns δ* and leaves `final_flow_` / `final_delta`
  /// set when some from-zero probe already solved δ*.
  Cap search(std::size_t n, Cap total, Cap lb, Cap& final_delta);

  void decompose(const ClusterTopology& topo, const std::vector<Cap>& demand,
                 MinMaxLoadResult& result);
  bool cancel_one_cycle();
  void cancel_cycles();

  SolvePolicy policy_;
  SolveStats stats_;
  const std::vector<std::vector<UnitPath>>* hint_ = nullptr;

  FlowGraph g_;
  std::vector<std::int32_t> demand_arc_;    // per sensor (-1 if demand 0)
  std::vector<std::int32_t> capacity_arc_;  // per sensor input→output arc
  std::vector<std::int32_t> sink_arc_;      // per sensor (-1 unless 1st level)
  std::vector<Cap> weight_;                 // resolved weights for this solve

  // Flow snapshots (per forward arc): the warm-start base (max flow at
  // the largest infeasible δ probed, or the hint-seeded flow before any
  // probe) and the flow of a from-zero feasible probe (reused by the
  // final decomposition when that probe's δ wins the search).
  std::vector<Cap> base_flow_;
  std::vector<Cap> final_flow_;
  bool have_base_ = false;
  Cap base_value_ = 0;

  MaxFlowWork work_;

  // Decomposition scratch.
  std::vector<Cap> remaining_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::int8_t> color_;
  std::vector<std::int32_t> entry_arc_;
};

/// One cluster's routing problem for a batch solve.
struct ClusterRouteJob {
  const ClusterTopology* topo = nullptr;
  std::vector<std::int64_t> demand;
  std::vector<std::int64_t> weight;  // empty = all-1
  RoutingPolicy routing = RoutingPolicy::kBalancedMaxFlow;
};

/// Solve every job on `workers` threads (0 = hardware concurrency, 1 =
/// inline) and return results in job order.  Each job runs on its own
/// engine, so results are identical for any worker count.
std::vector<MinMaxLoadResult> solve_clusters(
    std::span<const ClusterRouteJob> jobs, std::size_t workers = 1);

}  // namespace mhp::route
