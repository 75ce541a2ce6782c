#include "route/routing_engine.hpp"

#include <algorithm>
#include <numeric>

#include "obs/profiler.hpp"
#include "util/assertx.hpp"
#include "util/thread_pool.hpp"

namespace mhp::route {

namespace {

using Cap = FlowGraph::Cap;

/// Node layout inside the flow network for n sensors:
///   source = 0, sink t = 1, input(s) = 2 + 2s, output(s) = 3 + 2s.
struct Layout {
  static int source() { return 0; }
  static int sink() { return 1; }
  static int input(NodeId s) { return 2 + 2 * static_cast<int>(s); }
  static int output(NodeId s) { return 3 + 2 * static_cast<int>(s); }
  static bool is_input(int v) { return v >= 2 && (v - 2) % 2 == 0; }
  static NodeId sensor_of(int v) { return static_cast<NodeId>((v - 2) / 2); }
};

}  // namespace

void RoutingEngine::build_network(const ClusterTopology& topo,
                                  const std::vector<Cap>& demand,
                                  const std::vector<Cap>& weight) {
  const std::size_t n = topo.num_sensors();
  g_.reset(2 + 2 * static_cast<int>(n));
  capacity_arc_.assign(n, -1);
  for (NodeId s = 0; s < n; ++s) {
    if (demand[s] > 0)
      g_.add_arc(Layout::source(), Layout::input(s), demand[s]);
    // Capacity δ·w is set per probe via set_capacity.
    capacity_arc_[s] = static_cast<std::int32_t>(
        g_.add_arc(Layout::input(s), Layout::output(s), weight[s]));
    if (topo.head_hears(s))
      g_.add_arc(Layout::output(s), Layout::sink(), FlowGraph::kInfinite);
  }
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b : topo.sensor_links().neighbors(a))
      g_.add_arc(Layout::output(a), Layout::input(b), FlowGraph::kInfinite);
  // capacity_arc_ holds add_arc's insertion indices until build_csr
  // assigns the arc ids.
  const std::span<const std::int32_t> ids = g_.build_csr();
  for (std::int32_t& e : capacity_arc_) e = ids[static_cast<std::size_t>(e)];
}

void RoutingEngine::MaxFlowWork::count_span() const {
  MHP_SPAN_COUNTER("phases", phases);
  MHP_SPAN_COUNTER("augmentations", augmentations);
  MHP_SPAN_COUNTER("arc_scans", arc_scans);
}

void RoutingEngine::MaxFlowWork::add_to(SolveStats& stats) const {
  stats.phases += phases;
  stats.augmentations += augmentations;
  stats.arc_scans += arc_scans;
}

bool RoutingEngine::MaxFlowWork::bfs(const FlowGraph& g) {
  // Levels are residual distances TO the sink, found by a BFS that walks
  // arcs backwards: x precedes w when the arc x→w — the twin of the
  // out-arc w→x — has residual capacity.  The search stops once the
  // source is labelled: every node the phase can use is closer.  Queued
  // nodes are scanned in order, so their arc ranges are prefetched a few
  // dequeues ahead.
  constexpr std::size_t kPrefetchAhead = 4;
  const int s = Layout::source();
  const int t = Layout::sink();
  ++phases;
  level.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  queue.clear();
  level[t] = 0;
  queue.push_back(t);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (head + kPrefetchAhead < queue.size())
      g.prefetch_arcs(queue[head + kPrefetchAhead]);
    const int w = queue[head];
    const auto arcs = g.arcs_out(w);
    arc_scans += static_cast<std::int64_t>(arcs.size());
    for (const int e : arcs) {
      const int x = g.arc_to(e);
      if (level[x] < 0 && g.twin_residual(e) > 0) {
        level[x] = level[w] + 1;
        if (x == s) return true;
        queue.push_back(x);
      }
    }
  }
  return false;
}

FlowGraph::Cap RoutingEngine::MaxFlowWork::blocking_flow(FlowGraph& g) {
  // Depth-first walk from the source over admissible arcs (residual > 0,
  // one level closer to the sink), with the path kept as an explicit arc
  // stack.  iter[v] is v's next untried out-arc; a node with none left is
  // a dead end, and its parent moves past the arc into it.  On every
  // shortest s–t path node this tries the productive arcs forward-level
  // Dinic tries there, in the same order, so both push the same paths
  // (DESIGN.md §11).
  const int s = Layout::source();
  const int t = Layout::sink();
  iter.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  path.clear();
  Cap total = 0;
  int v = s;
  for (;;) {
    if (v == t) {
      Cap bottleneck = FlowGraph::kInfinite;
      for (const int e : path) bottleneck = std::min(bottleneck, g.residual(e));
      for (const int e : path) g.push(e, bottleneck);
      total += bottleneck;
      ++augmentations;
      // A restart from the source would walk the same arcs again up to
      // the first one this push saturated; resume at that arc's tail.
      std::size_t k = 0;
      while (g.residual(path[k]) > 0) ++k;
      v = g.arc_from(path[k]);
      path.resize(k);
      continue;
    }
    const auto arcs = g.arcs_out(v);
    const std::int32_t want = level[static_cast<std::size_t>(v)] - 1;
    auto& i = iter[static_cast<std::size_t>(v)];
    while (i < arcs.size() &&
           (g.residual(arcs[i]) <= 0 || level[g.arc_to(arcs[i])] != want))
      ++i;
    if (i < arcs.size()) {
      path.push_back(arcs[i]);
      v = g.arc_to(arcs[i]);
    } else if (path.empty()) {
      return total;  // the source is a dead end: the flow is blocking
    } else {
      v = g.arc_from(path.back());
      path.pop_back();
      ++iter[static_cast<std::size_t>(v)];
    }
  }
}

FlowGraph::Cap RoutingEngine::MaxFlowWork::augment(FlowGraph& g) {
  phases = 0;
  augmentations = 0;
  arc_scans = 0;
  Cap total = 0;
  while (bfs(g)) {
    const Cap pushed = blocking_flow(g);
    // A labelled source lies on a shortest path to the sink, so a phase
    // that pushes nothing means the levels and the walk disagree; fail
    // loudly instead of repeating the phase forever.
    MHP_ENSURE(pushed > 0, "Dinic phase pushed no flow");
    total += pushed;
  }
  return total;
}

bool RoutingEngine::cancel_one_cycle() {
  const auto n = static_cast<std::size_t>(g_.num_nodes());
  color_.assign(n, 0);      // 0 white, 1 gray, 2 black
  entry_arc_.assign(n, -1); // DFS tree arc into each gray node

  // Iterative DFS frame: node + index into its arc list.
  struct Frame {
    int v;
    std::size_t i;
  };

  auto flows = [&](int e) {
    return g_.is_forward(e) && remaining_[static_cast<std::size_t>(e)] > 0;
  };

  for (int root = 0; root < g_.num_nodes(); ++root) {
    if (color_[static_cast<std::size_t>(root)] != 0) continue;
    std::vector<Frame> stack{{root, 0}};
    color_[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      const auto arcs = g_.arcs_out(v);
      bool descended = false;
      for (; i < arcs.size(); ++i) {
        const int e = arcs[i];
        if (!flows(e)) continue;
        const int w = g_.arc_to(e);
        if (color_[static_cast<std::size_t>(w)] == 1) {
          // Back arc: cycle w → … → v → w.
          std::vector<int> cycle{e};
          for (int u = v; u != w; u = g_.arc_from(entry_arc_[u]))
            cycle.push_back(entry_arc_[u]);
          Cap m = FlowGraph::kInfinite;
          for (const int ce : cycle)
            m = std::min(m, remaining_[static_cast<std::size_t>(ce)]);
          for (const int ce : cycle)
            remaining_[static_cast<std::size_t>(ce)] -= m;
          return true;
        }
        if (color_[static_cast<std::size_t>(w)] == 0) {
          color_[static_cast<std::size_t>(w)] = 1;
          entry_arc_[w] = e;
          ++i;
          stack.push_back({w, 0});
          descended = true;
          break;
        }
      }
      if (!descended) {
        color_[static_cast<std::size_t>(v)] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

void RoutingEngine::cancel_cycles() {
  // Cycle flow is redundant: removing it preserves value and conservation.
  while (cancel_one_cycle()) {
  }
}

void RoutingEngine::decompose(const ClusterTopology& topo,
                              const std::vector<Cap>& demand,
                              MinMaxLoadResult& result) {
  MHP_SPAN("decompose");
  const std::size_t n = topo.num_sensors();
  // remaining_[e]: undistributed flow on forward arc e.  The sink has no
  // outgoing forward flow, so cancel_cycles never touches s→…→t paths'
  // net balance at the terminals.
  remaining_.assign(static_cast<std::size_t>(g_.num_arcs()), 0);
  for (int e = 0; e < g_.num_arcs(); ++e)
    if (g_.is_forward(e)) remaining_[static_cast<std::size_t>(e)] = g_.flow(e);
  cancel_cycles();

  // Monotone per-node cursors: remaining_ only decreases during the walk,
  // so skipping permanently-drained arcs returns the same first-positive
  // arc a full rescan would.
  cursor_.assign(static_cast<std::size_t>(g_.num_nodes()), 0);
  auto next_arc = [&](int v) -> int {
    const auto arcs = g_.arcs_out(v);
    auto& c = cursor_[static_cast<std::size_t>(v)];
    while (c < arcs.size()) {
      const int e = arcs[c];
      if (g_.is_forward(e) && remaining_[static_cast<std::size_t>(e)] > 0)
        return e;
      ++c;
    }
    return -1;
  };

  for (NodeId s = 0; s < n; ++s) {
    Cap left = demand[s];
    while (left > 0) {
      // One unit path: input(s) → … → sink.  The source→input(s) unit is
      // consumed implicitly through `left`.
      std::vector<NodeId> hops{s};
      int v = Layout::input(s);
      int steps = 0;
      while (v != Layout::sink()) {
        const int e = next_arc(v);
        MHP_ENSURE(e >= 0, "flow decomposition stuck (conservation broken)");
        MHP_ENSURE(++steps <= g_.num_arcs(),
                   "flow decomposition loop (cycle survived cancellation)");
        remaining_[static_cast<std::size_t>(e)] -= 1;
        v = g_.arc_to(e);
        if (Layout::is_input(v) && v != Layout::input(s))
          hops.push_back(Layout::sensor_of(v));
      }
      hops.push_back(topo.head());
      // Merge with an identical existing path if any.
      auto& list = result.paths[s];
      auto it = std::find_if(list.begin(), list.end(), [&](const UnitPath& p) {
        return p.hops == hops;
      });
      if (it != list.end())
        it->units += 1;
      else
        list.push_back(UnitPath{std::move(hops), 1});
      left -= 1;
    }
  }

  for (const auto& plist : result.paths) {
    for (const auto& p : plist) {
      // Every hop except the head transmits the packet `units` times.
      for (std::size_t i = 0; i + 1 < p.hops.size(); ++i)
        result.load[p.hops[i]] += p.units;
    }
  }
}

FlowGraph::Cap RoutingEngine::analytic_floor(
    const ClusterTopology& topo, const std::vector<Cap>& demand) const {
  const std::size_t n = topo.num_sensors();
  // Per-level cuts: a unit path's level drops by at most 1 per hop, so
  // every unit originating at level ≥ L is transmitted by at least one
  // level-L sensor, giving Σ_{level≥L} demand ≤ δ · Σ_{level=L} weight.
  // L = 1 is the classic head cut (all flow crosses the first level).
  const std::size_t max_l = topo.max_level();
  std::vector<Cap> level_weight(max_l + 1, 0);
  std::vector<Cap> level_demand(max_l + 1, 0);
  for (NodeId s = 0; s < n; ++s) {
    const std::size_t l = topo.level(s);
    if (l == ClusterTopology::kUnreachable) continue;  // demand 0 by now
    level_weight[l] += weight_[s];
    level_demand[l] += demand[s];
  }
  Cap lb = 1;
  Cap suffix = 0;
  for (std::size_t l = max_l; l >= 1; --l) {
    suffix += level_demand[l];
    if (level_weight[l] > 0)
      lb = std::max(lb, (suffix + level_weight[l] - 1) / level_weight[l]);
  }
  // Each sensor's own demand crosses its capacity arc: δ·wₛ ≥ demandₛ.
  for (NodeId s = 0; s < n; ++s)
    if (demand[s] > 0)
      lb = std::max(lb, (demand[s] + weight_[s] - 1) / weight_[s]);
  return lb;
}

FlowGraph::Cap RoutingEngine::search(const std::vector<Cap>& demand, Cap total,
                                     Cap delta) {
  // Newton's method for parametric max-flow (Radzik; Gallo–Grigoriadis–
  // Tarjan 1989).  Each probe is one from-zero max flow at δ.  When it
  // falls short, the last BFS has labelled exactly the nodes that still
  // reach t, which gives a min cut of capacity A + δ·B: A is the demand
  // of the sensors whose input node is on the sink side, B the weight of
  // the capacity arcs that cross.  Infinite arcs never cross (their tails
  // reach t through them).  Every feasible δ needs A + δ·B >= total, so
  // ⌈(total − A)/B⌉ is again a lower bound on δ*: probes climb from
  // below, and the first feasible one is δ*, its flow the one decomposed.
  const std::size_t n = demand.size();
  for (;;) {
    MHP_SPAN("route/probe");
    for (NodeId s = 0; s < n; ++s)
      g_.set_capacity(capacity_arc_[s], delta * weight_[s]);
    g_.clear_flow();
    const Cap value = work_.augment(g_);
    work_.count_span();
    work_.add_to(stats_);
    ++stats_.probes;
    MHP_SPAN_COUNTER("delta", delta);
    MHP_SPAN_COUNTER("feasible", value >= total ? 1 : 0);
    if (value >= total) return delta;

    const auto sink_side = [&](int v) {
      return work_.level[static_cast<std::size_t>(v)] >= 0;
    };
    Cap a = 0;
    Cap b = 0;
    for (NodeId s = 0; s < n; ++s) {
      if (sink_side(Layout::input(s)))
        a += demand[s];
      else if (sink_side(Layout::output(s)))
        b += weight_[s];
    }
    MHP_ENSURE(b > 0 && a + delta * b == value,
               "min cut does not match the max flow at delta=" +
                   std::to_string(delta));
    const Cap next = (total - a + b - 1) / b;
    MHP_ENSURE(next > delta && next <= total,
               "min-max-load search diverged: delta=" + std::to_string(delta) +
                   " next=" + std::to_string(next) + " with total demand " +
                   std::to_string(total));
    delta = next;
  }
}

MinMaxLoadResult RoutingEngine::solve_balanced(
    const ClusterTopology& topo, const std::vector<std::int64_t>& demand,
    const std::vector<std::int64_t>& weight) {
  MHP_SPAN("route/solve_balanced");
  stats_ = {};

  const std::size_t n = topo.num_sensors();
  MHP_REQUIRE(demand.size() == n, "demand size mismatch");
  weight_ = weight;
  if (weight_.empty()) weight_.assign(n, 1);
  MHP_REQUIRE(weight_.size() == n, "weight size mismatch");
  for (NodeId s = 0; s < n; ++s) {
    MHP_REQUIRE(demand[s] >= 0, "negative demand");
    MHP_REQUIRE(weight_[s] >= 1, "weights must be >= 1");
  }

  MinMaxLoadResult result;
  result.paths.assign(n, {});
  result.load.assign(n, 0);
  const Cap total = std::accumulate(demand.begin(), demand.end(), Cap{0});
  if (total == 0) {
    result.feasible = true;
    return result;
  }

  // Demand from a sensor with no relay path can never be routed.
  for (NodeId s = 0; s < n; ++s)
    if (demand[s] > 0 && topo.level(s) == ClusterTopology::kUnreachable)
      return result;  // infeasible

  // The analytic level-cut/demand floor is never above δ*, so the search
  // can start there.
  const Cap lb = analytic_floor(topo, demand);
  stats_.delta_lower_bound = lb;

  build_network(topo, demand, weight_);
  const Cap delta_star = search(demand, total, lb);
  stats_.delta_star = delta_star;

  result.feasible = true;
  result.max_load = delta_star;
  MHP_SPAN_COUNTER("probes", stats_.probes);
  MHP_SPAN_COUNTER("phases", stats_.phases);
  MHP_SPAN_COUNTER("augmentations", stats_.augmentations);
  MHP_SPAN_COUNTER("arc_scans", stats_.arc_scans);
  decompose(topo, demand, result);
  return result;
}

MinMaxLoadResult RoutingEngine::solve_shortest(
    const ClusterTopology& topo, const std::vector<std::int64_t>& demand) {
  MHP_SPAN("route/solve_shortest");
  stats_ = {};
  const std::size_t n = topo.num_sensors();
  MHP_REQUIRE(demand.size() == n, "demand size mismatch");
  MinMaxLoadResult result;
  result.paths.assign(n, {});
  result.load.assign(n, 0);

  // Parent of each sensor: the lowest-id neighbor one level closer (or the
  // head for first-level sensors).
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId s = 0; s < n; ++s) {
    if (topo.level(s) == ClusterTopology::kUnreachable) {
      if (demand[s] > 0) return result;  // infeasible
      continue;
    }
    if (topo.head_hears(s)) {
      parent[s] = topo.head();
      continue;
    }
    for (NodeId nb : topo.sensor_links().neighbors(s)) {
      if (topo.level(nb) + 1 == topo.level(s)) {
        parent[s] = nb;
        break;
      }
    }
    MHP_ENSURE(parent[s] != kNoNode, "level structure inconsistent");
  }

  for (NodeId s = 0; s < n; ++s) {
    if (demand[s] == 0) continue;
    std::vector<NodeId> hops{s};
    NodeId v = s;
    while (v != topo.head()) {
      v = parent[v];
      hops.push_back(v);
    }
    for (std::size_t i = 0; i + 1 < hops.size(); ++i)
      result.load[hops[i]] += demand[s];
    result.paths[s].push_back(UnitPath{std::move(hops), demand[s]});
  }
  result.feasible = true;
  // An empty cluster has no loads; its max load is 0, as solve_balanced
  // reports.
  if (n > 0)
    result.max_load = *std::max_element(result.load.begin(), result.load.end());
  return result;
}

MinMaxLoadResult RoutingEngine::solve(RoutingPolicy policy,
                                      const ClusterTopology& topo,
                                      const std::vector<std::int64_t>& demand,
                                      const std::vector<std::int64_t>& weight) {
  return policy == RoutingPolicy::kShortestPath
             ? solve_shortest(topo, demand)
             : solve_balanced(topo, demand, weight);
}

std::vector<MinMaxLoadResult> solve_clusters(
    std::span<const ClusterRouteJob> jobs, std::size_t workers) {
  MHP_SPAN("route/solve_clusters");
  std::vector<MinMaxLoadResult> results(jobs.size());
  const auto solve_one = [&](std::size_t i) {
    // Top-level span on its worker thread; the pool's join is the
    // quiescent point a later drain() relies on.
    MHP_SPAN("route/cluster");
    const ClusterRouteJob& job = jobs[i];
    MHP_REQUIRE(job.topo != nullptr, "cluster route job without topology");
    RoutingEngine engine;
    results[i] = engine.solve(job.routing, *job.topo, job.demand, job.weight);
  };
  if (jobs.size() <= 1 || workers == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) solve_one(i);
    return results;
  }
  // Result slots are indexed by job, so scheduling order cannot reorder
  // or interleave outputs: any worker count yields identical results.
  ThreadPool pool(workers == 0 ? 0 : std::min(workers, jobs.size()));
  pool.parallel_for(jobs.size(), solve_one);
  return results;
}

}  // namespace mhp::route
