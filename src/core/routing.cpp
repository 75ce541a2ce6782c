#include "core/routing.hpp"

#include <algorithm>
#include <numeric>

#include "util/assertx.hpp"

namespace mhp {

RelayPlan::RelayPlan(const ClusterTopology& topo, MinMaxLoadResult solution)
    : head_(topo.head()) {
  MHP_REQUIRE(solution.feasible, "routing solution infeasible");
  paths_ = std::move(solution.paths);
  load_ = std::move(solution.load);
  max_load_ = solution.max_load;
  MHP_REQUIRE(paths_.size() == topo.num_sensors(), "plan size mismatch");
}

RelayPlan RelayPlan::balanced(const ClusterTopology& topo,
                              const std::vector<std::int64_t>& demand) {
  return RelayPlan(topo, route::RoutingEngine().solve_balanced(topo, demand));
}

RelayPlan RelayPlan::balanced_weighted(
    const ClusterTopology& topo, const std::vector<std::int64_t>& demand,
    const std::vector<std::int64_t>& weight) {
  return RelayPlan(topo,
                   route::RoutingEngine().solve_balanced(topo, demand, weight));
}

RelayPlan RelayPlan::shortest(const ClusterTopology& topo,
                              const std::vector<std::int64_t>& demand) {
  return RelayPlan(topo, route::RoutingEngine().solve_shortest(topo, demand));
}

const UnitPath& RelayPlan::path_for_cycle(NodeId s,
                                          std::uint64_t cycle) const {
  const auto& list = paths_.at(s);
  MHP_REQUIRE(!list.empty(), "sensor has no relaying path (zero demand)");
  if (list.size() == 1) return list.front();
  // Weighted round-robin: within a window of Σ units, path p owns `units`
  // consecutive cycles.
  std::int64_t window = 0;
  for (const auto& p : list) window += p.units;
  auto phase = static_cast<std::int64_t>(cycle % static_cast<std::uint64_t>(window));
  for (const auto& p : list) {
    if (phase < p.units) return p;
    phase -= p.units;
  }
  MHP_ENSURE(false, "rotation phase out of window");
  return list.front();
}

std::optional<std::uint64_t> RelayPlan::rotation_period() const {
  std::uint64_t period = 1;
  for (const auto& list : paths_) {
    if (list.size() < 2) continue;
    std::uint64_t window = 0;
    for (const auto& p : list) window += static_cast<std::uint64_t>(p.units);
    if (__builtin_mul_overflow(period / std::gcd(period, window), window,
                               &period))
      return std::nullopt;
  }
  return period;
}

std::map<NodeId, NodeId> RelayPlan::one_hop_table(NodeId r,
                                                  std::uint64_t cycle) const {
  std::map<NodeId, NodeId> table;
  for (NodeId s = 0; s < paths_.size(); ++s) {
    if (paths_[s].empty()) continue;
    const UnitPath& p = path_for_cycle(s, cycle);
    for (std::size_t i = 1; i + 1 < p.hops.size(); ++i) {
      if (p.hops[i] == r) {
        table[s] = p.hops[i + 1];
        break;
      }
    }
  }
  return table;
}

std::vector<NodeId> RelayPlan::dependents(NodeId s,
                                          std::uint64_t cycle) const {
  std::vector<NodeId> deps;
  for (NodeId o = 0; o < paths_.size(); ++o) {
    if (o == s || paths_[o].empty()) continue;
    const UnitPath& p = path_for_cycle(o, cycle);
    for (std::size_t i = 1; i + 1 < p.hops.size(); ++i) {
      if (p.hops[i] == s) {
        deps.push_back(o);
        break;
      }
    }
  }
  return deps;
}

}  // namespace mhp
