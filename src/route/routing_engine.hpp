// RoutingEngine: single owner of the min-max-load routing stack — flow
// network construction, scratch arenas, δ-search policy and flow
// decomposition (paper §III-A).
//
// The engine produces byte-identical results to the legacy free functions
// (`solve_min_max_load` / `solve_shortest_path_routing`, now thin shims
// over an engine) while adding:
//   * warm-start δ-probes — each feasibility probe augments the best flow
//     found at a smaller δ instead of re-solving from zero.  Probes only
//     answer "is δ feasible?" (the max-flow *value* at a given δ is
//     unique, the assignment is not); the path decomposition always comes
//     from one final from-zero solve at δ*, which is exactly the flow the
//     cold search decomposed.  That is the determinism contract.
//   * speculative parallel δ-probes — with policy.probe_workers > 1 the
//     δ-search dispatches several candidate δ feasibility probes
//     concurrently on a util::ThreadPool, each on its own FlowGraph
//     clone (shared frozen structure, private capacities/flow).  Probes
//     still only answer feasibility, and feasibility at a given δ is a
//     pure predicate (the max-flow value is unique no matter which base
//     flow or thread computed it), so δ* — and hence the decomposed
//     plan — is byte-identical for any worker count.
//   * per-cell δ floor — given a cell partition hint (set_cell_hint),
//     large solves first solve the per-cell relaxations (in-cell links
//     only; any sensor with an out-of-cell neighbor counts as
//     head-heard) through the solve_clusters batch machinery.  Each
//     relaxation's optimum is a valid lower bound on δ* (restrict a
//     global solution's unit paths to their in-cell prefixes and they
//     solve the relaxation at the same δ), so their max only trims the
//     search range — it can never change the result.
//   * warm hints — a surviving RelayPlan can seed the first probe of a
//     post-fault replan with its still-valid unit paths.  Hints only
//     pre-load flow for feasibility probes, so they never change results.
//   * reusable arenas — the CSR graph, BFS/DFS scratch, probe slots and
//     flow snapshots persist across solves on the same engine.
//
// Engines are cheap to construct and NOT thread-safe; for parallel
// per-cluster routing use solve_clusters(), which gives each worker its
// own engine and writes results into per-cluster slots (deterministic for
// any worker count because each solve is a pure function of its job).
// A single-job solve_clusters call instead hands its whole worker budget
// to that one engine's probe scheduler — the single-huge-cluster case.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flow/min_max_load.hpp"
#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "route/flow_graph.hpp"

namespace mhp {
class ThreadPool;
}

namespace mhp::route {

struct SolvePolicy {
  MaxFlowAlgo algo = MaxFlowAlgo::kDinic;
  /// Reuse flow between δ-probes (results are identical either way; cold
  /// mode exists for equivalence tests and perf comparisons).
  bool warm_start = true;
  /// Concurrent speculative δ-probes per search round (0 = hardware
  /// concurrency, 1 = the serial search).  Results are byte-identical
  /// for any value; >1 trades redundant probe work for wall time.
  std::size_t probe_workers = 1;
};

enum class SolveKind { kBalancedMaxFlow, kShortestPath };

/// Counters from the most recent solve_balanced (zeroed for trivially
/// feasible/infeasible instances and for solve_shortest).
struct SolveStats {
  int probes = 0;       // δ feasibility probes run (incl. speculative)
  int rounds = 0;       // sequential probe waves (== probes when serial)
  int cold_solves = 0;  // from-zero max-flow runs (probes + the final one)
  std::int64_t delta_lower_bound = 0;  // δ floor the search began at
  std::int64_t cell_floor = 0;  // per-cell relaxation bound (0 = not run)
  std::int64_t delta_star = 0;  // winning δ (== result.max_load)
  std::int64_t hint_units = 0;  // flow pre-seeded from a warm hint
  // Max-flow work over every probe and the final solve.
  std::int64_t phases = 0;         // BFS runs, the last one finding no path
  std::int64_t augmentations = 0;  // augmenting paths pushed
  std::int64_t arc_scans = 0;      // out-arcs of every node a BFS dequeued
};

class RoutingEngine {
 public:
  explicit RoutingEngine(SolvePolicy policy = {});
  ~RoutingEngine();
  RoutingEngine(RoutingEngine&&) = delete;

  void set_policy(SolvePolicy policy) { policy_ = policy; }
  const SolvePolicy& policy() const { return policy_; }

  /// Min-max-load routing (binary search over δ with max-flow probes).
  /// Same contract as the legacy mhp::solve_min_max_load.
  MinMaxLoadResult solve_balanced(const ClusterTopology& topo,
                                  const std::vector<std::int64_t>& demand,
                                  const std::vector<std::int64_t>& weight = {});

  /// BFS shortest-path baseline; same contract as the legacy
  /// mhp::solve_shortest_path_routing.
  MinMaxLoadResult solve_shortest(const ClusterTopology& topo,
                                  const std::vector<std::int64_t>& demand);

  MinMaxLoadResult solve(SolveKind kind, const ClusterTopology& topo,
                         const std::vector<std::int64_t>& demand,
                         const std::vector<std::int64_t>& weight = {});

  /// Seed the NEXT solve_balanced's first δ-probe with the unit paths of a
  /// previous solution (e.g. the surviving flow after a fault).  Paths
  /// with dead hops/links are skipped; the hint is consumed by that solve.
  /// The pointee must stay alive until then.  Never changes results.
  void set_warm_hint(const std::vector<std::vector<UnitPath>>* hint) {
    hint_ = hint;
  }

  /// Cell partition hint for the per-cell δ floor: cells[s] is sensor
  /// s's cell id (any values; route::grid_cells produces a spatial
  /// one).  Persistent across solves; applied when the hint matches the
  /// solve's sensor count and the cluster is large enough to pay for the
  /// batch of cell solves.  Pass {} to clear.  Never changes results —
  /// the floor is a proven lower bound on δ*, so it only trims probes.
  void set_cell_hint(std::vector<std::int32_t> cells) {
    cell_hint_ = std::move(cells);
  }
  const std::vector<std::int32_t>& cell_hint() const { return cell_hint_; }

  const SolveStats& last_stats() const { return stats_; }

  /// Smallest cluster the per-cell floor runs for (below it, the batch
  /// of cell solves costs more than the probes it could save).
  static constexpr std::size_t kCellFloorMinSensors = 512;

 private:
  using Cap = FlowGraph::Cap;

  /// Max-flow scratch + augmentation over any FlowGraph: augments
  /// whatever flow is installed on g to a maximum flow and returns the
  /// value pushed.  One per probe slot so probes run concurrently.
  /// The counters describe the latest augment() call.
  struct MaxFlowWork {
    std::vector<std::int32_t> level;  // Dinic sink distances / EK pred arcs
    std::vector<std::int32_t> queue;
    std::vector<std::uint32_t> iter;
    std::vector<std::int32_t> path;  // DFS arc stack, source first
    std::int64_t phases = 0;
    std::int64_t augmentations = 0;
    std::int64_t arc_scans = 0;

    Cap augment(FlowGraph& g, MaxFlowAlgo algo);
    /// Attach the latest augment()'s counters to the innermost open
    /// profiler span.
    void count_span() const;
    void add_to(SolveStats& stats) const;

   private:
    Cap augment_edmonds_karp(FlowGraph& g);
    Cap augment_dinic(FlowGraph& g);
    bool dinic_bfs(const FlowGraph& g);
    Cap blocking_flow(FlowGraph& g);
  };

  /// One speculative probe's private state: a FlowGraph clone (shared
  /// structure, private capacities) plus its own max-flow scratch.
  struct ProbeSlot {
    FlowGraph g;
    MaxFlowWork work;
    Cap delta = 0;
    Cap value = 0;
    bool feasible = false;
    bool from_zero = false;
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
  /// Per-cell relaxation floor (see class comment); 0 when skipped.
  Cap cell_floor_bound(const ClusterTopology& topo,
                       const std::vector<Cap>& demand);

  /// δ-search back ends.  Both return δ* and leave `final_flow_` /
  /// `final_delta` set when some from-zero probe already solved δ*.
  Cap search_serial(std::size_t n, Cap total, Cap lb, Cap& final_delta);
  Cap search_parallel(std::size_t n, Cap total, Cap lb, std::size_t workers,
                      Cap& final_delta);

  /// The probe pool, created lazily at the policy's worker count.
  ThreadPool& pool(std::size_t workers);

  void decompose(const ClusterTopology& topo, const std::vector<Cap>& demand,
                 MinMaxLoadResult& result);
  bool cancel_one_cycle();
  void cancel_cycles();

  SolvePolicy policy_;
  SolveStats stats_;
  const std::vector<std::vector<UnitPath>>* hint_ = nullptr;
  std::vector<std::int32_t> cell_hint_;

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

  MaxFlowWork work_;                // the serial path's max-flow scratch
  std::vector<ProbeSlot> slots_;    // parallel probe arenas (persistent)
  std::unique_ptr<ThreadPool> pool_;
  std::size_t pool_workers_ = 0;

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
  SolveKind kind = SolveKind::kBalancedMaxFlow;
};

/// Solve every job on `workers` threads (0 = hardware concurrency, 1 =
/// inline) and return results in job order.  Each worker runs its own
/// engine, so results are identical for any worker count.  A single job
/// hands the whole worker budget to that engine's speculative δ-probe
/// scheduler instead (the single-huge-cluster case) — still
/// byte-identical for any worker count.
std::vector<MinMaxLoadResult> solve_clusters(
    std::span<const ClusterRouteJob> jobs, std::size_t workers = 1,
    SolvePolicy policy = {});

}  // namespace mhp::route
