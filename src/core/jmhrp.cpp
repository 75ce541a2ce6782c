#include "core/jmhrp.hpp"

#include <algorithm>

#include "core/greedy_scheduler.hpp"
#include "core/optimal_scheduler.hpp"
#include "core/routing.hpp"
#include "route/routing_engine.hpp"
#include "util/assertx.hpp"

namespace mhp {

std::vector<std::vector<NodeId>> candidate_paths(const ClusterTopology& topo,
                                                 NodeId s,
                                                 std::size_t max_paths,
                                                 std::size_t max_hops) {
  std::vector<std::vector<NodeId>> found;
  std::vector<NodeId> current{s};
  std::vector<bool> visited(topo.num_sensors(), false);
  visited[s] = true;

  // DFS over simple paths, preferring neighbors closer to the head so the
  // shortest paths are discovered first.
  auto dfs = [&](auto&& self, NodeId v) -> void {
    if (found.size() >= max_paths) return;
    if (topo.head_hears(v)) {
      auto path = current;
      path.push_back(topo.head());
      found.push_back(std::move(path));
      // Keep exploring: v may also relay deeper paths.
    }
    if (current.size() > max_hops) return;
    auto neighbors = topo.sensor_links().neighbors(v);
    std::sort(neighbors.begin(), neighbors.end(), [&](NodeId a, NodeId b) {
      return topo.level(a) < topo.level(b);
    });
    for (NodeId w : neighbors) {
      if (visited[w] || found.size() >= max_paths) continue;
      visited[w] = true;
      current.push_back(w);
      self(self, w);
      current.pop_back();
      visited[w] = false;
    }
  };
  dfs(dfs, s);

  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  return found;
}

namespace {

/// Score one routing choice: exact schedule + power rate.  Nullopt when
/// unschedulable.
std::optional<JmhrpResult> score(const ClusterTopology& topo,
                                 const CompatibilityOracle& oracle,
                                 const JmhrpParams& params,
                                 std::vector<std::size_t> choice,
                                 std::vector<std::vector<NodeId>> paths,
                                 bool exact) {
  std::vector<PollingRequest> requests;
  requests.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i)
    requests.push_back({static_cast<RequestId>(i), paths[i]});

  JmhrpResult result;
  if (exact) {
    OptimalScheduler solver(oracle);
    auto sched = solver.solve(requests);
    if (!sched) return std::nullopt;
    result.schedule = std::move(sched->schedule);
    result.slots = sched->slots;
  } else {
    const auto run = run_offline(oracle, paths);
    if (!run.all_delivered) return std::nullopt;
    result.schedule = run.schedule;
    result.slots = run.slots;
  }

  std::vector<double> load(topo.num_sensors(), 0.0);
  for (const auto& p : paths)
    for (std::size_t i = 0; i + 1 < p.size(); ++i) load[p[i]] += 1.0;
  double worst = 0.0;
  for (NodeId s = 0; s < topo.num_sensors(); ++s)
    worst = std::max(worst, params.alpha * load[s] +
                                params.beta * static_cast<double>(result.slots));
  result.max_power_rate = worst;
  result.choice = std::move(choice);
  result.paths = std::move(paths);
  return result;
}

}  // namespace

std::optional<JmhrpResult> solve_jmhrp_exact(const ClusterTopology& topo,
                                             const CompatibilityOracle& oracle,
                                             JmhrpParams params,
                                             std::size_t max_paths) {
  const std::size_t n = topo.num_sensors();
  MHP_REQUIRE(n <= 8, "exact JMHRP capped at 8 sensors");
  std::vector<std::vector<std::vector<NodeId>>> cands(n);
  // Seed every sensor's candidate list with its flow-routed path so the
  // joint search space is a superset of the decomposition's choice.
  const auto flow_routing = route::RoutingEngine().solve_balanced(
      topo, std::vector<std::int64_t>(n, 1));
  std::uint64_t combos = 1;
  for (NodeId s = 0; s < n; ++s) {
    cands[s] = candidate_paths(topo, s, max_paths);
    if (flow_routing.feasible) {
      const auto& routed = flow_routing.paths[s][0].hops;
      if (std::find(cands[s].begin(), cands[s].end(), routed) ==
          cands[s].end())
        cands[s].push_back(routed);
    }
    if (cands[s].empty()) return std::nullopt;  // disconnected sensor
    combos *= cands[s].size();
  }
  MHP_REQUIRE(combos <= 100'000, "JMHRP instance too large");

  std::optional<JmhrpResult> best;
  std::vector<std::size_t> choice(n, 0);
  for (std::uint64_t k = 0; k < combos; ++k) {
    std::uint64_t rem = k;
    std::vector<std::vector<NodeId>> paths(n);
    for (NodeId s = 0; s < n; ++s) {
      choice[s] = rem % cands[s].size();
      rem /= cands[s].size();
      paths[s] = cands[s][choice[s]];
    }
    auto scored = score(topo, oracle, params, choice, std::move(paths),
                        /*exact=*/true);
    if (scored && (!best || scored->max_power_rate < best->max_power_rate))
      best = std::move(scored);
  }
  return best;
}

std::optional<JmhrpResult> solve_jmhrp_decomposed(
    const ClusterTopology& topo, const CompatibilityOracle& oracle,
    JmhrpParams params) {
  const std::size_t n = topo.num_sensors();
  const auto routing = route::RoutingEngine().solve_balanced(
      topo, std::vector<std::int64_t>(n, 1));
  if (!routing.feasible) return std::nullopt;
  std::vector<std::vector<NodeId>> paths(n);
  for (NodeId s = 0; s < n; ++s) paths[s] = routing.paths[s][0].hops;
  return score(topo, oracle, params, std::vector<std::size_t>(n, 0),
               std::move(paths), /*exact=*/false);
}

}  // namespace mhp
