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
// The δ-search is Newton's method for parametric max-flow: each probe is
// one from-zero Dinic max flow at δ, starting at an analytic floor (level
// cuts and per-sensor demand bounds, never above δ*).  An infeasible
// probe's min cut, read off its last BFS, bounds δ* from below, and the
// next probe goes there, so probes climb strictly towards δ* and the
// first feasible one is δ*.  Its from-zero flow is the one decomposed,
// which is the determinism contract: the result is a pure function of
// the instance.  The CSR graph and the BFS/DFS and decomposition scratch
// persist across solves on the same engine.
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

/// Counters from the most recent solve_balanced (zeroed for trivially
/// feasible/infeasible instances and for solve_shortest).
struct SolveStats {
  int probes = 0;  // δ probes run, each one from-zero max flow
  std::int64_t delta_lower_bound = 0;  // δ floor the search began at
  std::int64_t delta_star = 0;  // winning δ (== result.max_load)
  // Max-flow work over every probe.
  std::int64_t phases = 0;         // BFS runs, the last one finding no path
  std::int64_t augmentations = 0;  // augmenting paths pushed
  std::int64_t arc_scans = 0;      // out-arcs of every node a BFS dequeued
};

class RoutingEngine {
 public:
  RoutingEngine() = default;
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

  const SolveStats& last_stats() const { return stats_; }

 private:
  using Cap = FlowGraph::Cap;

  /// Dinic max-flow scratch: augments the flow on g to a maximum flow and
  /// returns the value pushed.  The counters describe the latest augment()
  /// call.  After it, level[v] >= 0 marks exactly the nodes that still
  /// reach the sink in the residual graph.
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

  /// Analytic δ floor: per-level cut bounds (all demand from level ≥ L
  /// crosses the level-L sensors; L = 1 is the head cut) and per-sensor
  /// demand bounds.  Never above δ*.
  Cap analytic_floor(const ClusterTopology& topo,
                     const std::vector<Cap>& demand) const;

  /// The Newton δ-search from `delta` (a lower bound on δ*).  Returns δ*
  /// and leaves g_ holding the from-zero max flow at δ*.
  Cap search(const std::vector<Cap>& demand, Cap total, Cap delta);

  void decompose(const ClusterTopology& topo, const std::vector<Cap>& demand,
                 MinMaxLoadResult& result);
  bool cancel_one_cycle();
  void cancel_cycles();

  SolveStats stats_;

  FlowGraph g_;
  std::vector<std::int32_t> capacity_arc_;  // per sensor input→output arc
  std::vector<Cap> weight_;                 // resolved weights for this solve

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
