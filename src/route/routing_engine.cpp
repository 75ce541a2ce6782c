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
  demand_arc_.assign(n, -1);
  capacity_arc_.assign(n, -1);
  sink_arc_.assign(n, -1);
  for (NodeId s = 0; s < n; ++s) {
    if (demand[s] > 0)
      demand_arc_[s] = static_cast<std::int32_t>(
          g_.add_arc(Layout::source(), Layout::input(s), demand[s]));
    // Capacity δ·w is set per probe via set_capacity.
    capacity_arc_[s] = static_cast<std::int32_t>(
        g_.add_arc(Layout::input(s), Layout::output(s), weight[s]));
    if (topo.head_hears(s))
      sink_arc_[s] = static_cast<std::int32_t>(
          g_.add_arc(Layout::output(s), Layout::sink(), FlowGraph::kInfinite));
  }
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b : topo.sensor_links().neighbors(a))
      g_.add_arc(Layout::output(a), Layout::input(b), FlowGraph::kInfinite);
  // The tables hold add_arc's insertion indices until build_csr assigns
  // the arc ids.
  const std::span<const std::int32_t> ids = g_.build_csr();
  for (auto* table : {&demand_arc_, &capacity_arc_, &sink_arc_})
    for (std::int32_t& e : *table)
      if (e >= 0) e = ids[static_cast<std::size_t>(e)];
}

int RoutingEngine::find_link_arc(NodeId a, NodeId b) const {
  const int target = Layout::input(b);
  for (const int e : g_.arcs_out(Layout::output(a)))
    if (g_.is_forward(e) && g_.arc_to(e) == target) return e;
  return -1;
}

FlowGraph::Cap RoutingEngine::prime_from_hint(
    const std::vector<std::vector<UnitPath>>& hint) {
  const std::size_t n = capacity_arc_.size();
  Cap primed = 0;
  std::vector<int> arcs;
  for (std::size_t s = 0; s < hint.size() && s < n; ++s) {
    if (demand_arc_[s] < 0) continue;
    for (const UnitPath& p : hint[s]) {
      // hops = {s, relays..., head}; the head hop maps to the last relay's
      // sink arc, every relay hop to a link arc plus its capacity arc.
      if (p.hops.size() < 2 || p.hops.front() != static_cast<NodeId>(s))
        continue;
      arcs.clear();
      arcs.push_back(demand_arc_[s]);
      arcs.push_back(capacity_arc_[s]);
      bool ok = true;
      for (std::size_t i = 0; i + 2 < p.hops.size(); ++i) {
        const NodeId b = p.hops[i + 1];
        if (b >= n) {
          ok = false;
          break;
        }
        const int link = find_link_arc(p.hops[i], b);
        if (link < 0) {
          ok = false;
          break;
        }
        arcs.push_back(link);
        arcs.push_back(capacity_arc_[b]);
      }
      if (!ok) continue;
      const NodeId last_relay = p.hops[p.hops.size() - 2];
      if (last_relay >= n || sink_arc_[last_relay] < 0) continue;
      arcs.push_back(sink_arc_[last_relay]);
      Cap units = p.units;
      for (const int e : arcs) units = std::min(units, g_.residual(e));
      if (units <= 0) continue;
      for (const int e : arcs) g_.push(e, units);
      primed += units;
    }
  }
  return primed;
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

FlowGraph::Cap RoutingEngine::search(std::size_t n, Cap total, Cap lb,
                                     Cap& final_delta) {
  const bool warm = policy_.warm_start;

  // Probe δ and return the max-flow value there.  Warm probes extend the
  // base flow (the max flow of the largest infeasible δ so far — valid
  // here because capacities only grow with δ); the value they converge to
  // is unique even though the flow assignment is not, so feasibility
  // answers — and hence δ* — match the cold search exactly.  Feasible
  // from-zero probes save their flow: it is exactly the solve the
  // decomposition contract calls for, so the final step can reuse it.
  const auto probe = [&](Cap delta) {
    MHP_SPAN("route/probe");
    for (NodeId s = 0; s < n; ++s)
      g_.set_capacity(capacity_arc_[s], delta * weight_[s]);
    Cap value = 0;
    const bool from_zero = !(warm && have_base_);
    if (from_zero) {
      g_.clear_flow();
      ++stats_.cold_solves;
    } else {
      g_.install_flow(base_flow_);
      value = base_value_;
    }
    value += work_.augment(g_);
    work_.count_span();
    work_.add_to(stats_);
    ++stats_.probes;
    if (value >= total) {
      if (from_zero) {
        g_.save_flow(final_flow_);
        final_delta = delta;
      }
    } else if (warm) {
      g_.save_flow(base_flow_);
      have_base_ = true;
      base_value_ = value;
    }
    MHP_SPAN_COUNTER("delta", delta);
    MHP_SPAN_COUNTER("feasible", value >= total ? 1 : 0);
    return value;
  };

  // Gallop up from the floor with doubling GAPS (the analytic floor is
  // usually tight, so small first steps beat a doubling-δ ladder),
  // clamped at δ = total, which is always feasible once every
  // demand-positive sensor is reachable: no sensor ever relays more than
  // the whole load, and capacity total·w covers that.
  Cap lo = lb;
  Cap hi = lb;
  Cap step = 1;
  while (probe(hi) < total) {
    MHP_ENSURE(hi < total,
               "min-max-load search diverged: delta=" + std::to_string(hi) +
                   " infeasible with total demand " + std::to_string(total));
    lo = hi + 1;
    hi = std::min(hi + step, total);
    step *= 2;
  }
  while (lo < hi) {
    const Cap mid = lo + (hi - lo) / 2;
    if (probe(mid) >= total)
      hi = mid;
    else
      lo = mid + 1;
  }
  return hi;
}

MinMaxLoadResult RoutingEngine::solve_balanced(
    const ClusterTopology& topo, const std::vector<std::int64_t>& demand,
    const std::vector<std::int64_t>& weight) {
  MHP_SPAN("route/solve_balanced");
  const auto* hint = hint_;
  hint_ = nullptr;  // one-shot, consumed even on early return
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

  // The analytic level-cut/demand floor is never above δ*, so it only
  // trims the search.
  const Cap lb = analytic_floor(topo, demand);
  stats_.delta_lower_bound = lb;

  build_network(topo, demand, weight_);
  have_base_ = false;
  base_value_ = 0;

  // A warm hint is only a feasibility head start: pre-push its still-valid
  // unit paths and keep them as the first warm base.
  if (policy_.warm_start && hint != nullptr) {
    for (NodeId s = 0; s < n; ++s)
      g_.set_capacity(capacity_arc_[s], lb * weight_[s]);
    g_.clear_flow();
    const Cap primed = prime_from_hint(*hint);
    stats_.hint_units = primed;
    if (primed > 0) {
      g_.save_flow(base_flow_);
      have_base_ = true;
      base_value_ = primed;
    }
  }

  Cap final_delta = 0;
  const Cap delta_star = search(n, total, lb, final_delta);
  stats_.delta_star = delta_star;

  // Decomposition contract: the flow decomposed is always the one
  // from-zero solve at δ*.  When some from-zero probe already ran it
  // (cold searches always have; a warm search only when its very first
  // probe won), reuse that flow; otherwise run it now.  Either way warm
  // and cold searches decompose byte-identical flows.
  for (NodeId s = 0; s < n; ++s)
    g_.set_capacity(capacity_arc_[s], delta_star * weight_[s]);
  if (final_delta == delta_star) {
    g_.install_flow(final_flow_);
  } else {
    g_.clear_flow();
    const Cap final_value = work_.augment(g_);
    work_.add_to(stats_);
    ++stats_.cold_solves;
    MHP_ENSURE(final_value >= total, "final flow lost feasibility");
  }

  result.feasible = true;
  result.max_load = delta_star;
  MHP_SPAN_COUNTER("probes", stats_.probes);
  MHP_SPAN_COUNTER("cold_solves", stats_.cold_solves);
  MHP_SPAN_COUNTER("hint_units", stats_.hint_units);
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
  hint_ = nullptr;
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
