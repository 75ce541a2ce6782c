#include "core/ack_collection.hpp"

#include <algorithm>
#include <numeric>

#include "util/assertx.hpp"

namespace mhp {

namespace {

/// Fallback path for a sensor without a demand path: climb the level
/// structure (lowest-id neighbor one level closer each hop).
std::vector<NodeId> level_path(const ClusterTopology& topo, NodeId s) {
  std::vector<NodeId> path{s};
  NodeId v = s;
  while (!topo.head_hears(v)) {
    NodeId next = kNoNode;
    for (NodeId nb : topo.sensor_links().neighbors(v)) {
      if (topo.level(nb) + 1 == topo.level(v)) {
        next = nb;
        break;
      }
    }
    MHP_REQUIRE(next != kNoNode, "sensor has no path to head");
    path.push_back(next);
    v = next;
  }
  path.push_back(topo.head());
  return path;
}

std::vector<std::vector<NodeId>> candidate_paths(
    const ClusterTopology& topo, const RelayPlan& plan, std::uint64_t cycle,
    const std::vector<NodeId>& sensors) {
  std::vector<std::vector<NodeId>> cands;
  cands.reserve(sensors.size());
  for (NodeId s : sensors) {
    if (!plan.paths(s).empty())
      cands.push_back(plan.path_for_cycle(s, cycle).hops);
    else
      cands.push_back(level_path(topo, s));
  }
  return cands;
}

std::vector<NodeId> all_sensors(const ClusterTopology& topo) {
  std::vector<NodeId> v(topo.num_sensors());
  std::iota(v.begin(), v.end(), 0);
  return v;
}

}  // namespace

AckPlan plan_ack_cover(const std::vector<NodeId>& targets,
                       const std::vector<std::vector<NodeId>>& candidates) {
  // Element ids: position of each sensor in `targets` (the last one when
  // a sensor is listed twice), indexed by node id.
  constexpr std::size_t kNotTarget = static_cast<std::size_t>(-1);
  std::vector<std::size_t> elem_of;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] >= elem_of.size())
      elem_of.resize(static_cast<std::size_t>(targets[i]) + 1, kNotTarget);
    elem_of[targets[i]] = i;
  }

  std::vector<WeightedSubset> subsets;
  subsets.reserve(candidates.size());
  for (const auto& path : candidates) {
    WeightedSubset sub;
    sub.cost = static_cast<double>(path.size() - 1);  // hop count
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] < elem_of.size() && elem_of[path[i]] != kNotTarget)
        sub.elements.push_back(elem_of[path[i]]);
    }
    subsets.push_back(std::move(sub));
  }

  const auto cover = greedy_set_cover(targets.size(), subsets);
  AckPlan out;
  out.covers_all = cover.covered;
  out.total_hops = cover.total_cost;
  for (std::size_t i : cover.chosen) out.poll_paths.push_back(candidates[i]);
  return out;
}

AckPlan plan_ack_collection(const ClusterTopology& topo,
                            const RelayPlan& plan, std::uint64_t cycle,
                            const std::vector<NodeId>& sensors) {
  const std::vector<NodeId> targets =
      sensors.empty() ? all_sensors(topo) : sensors;
  return plan_ack_cover(targets,
                        candidate_paths(topo, plan, cycle, targets));
}

AckPlan ack_poll_everyone(const ClusterTopology& topo, const RelayPlan& plan,
                          std::uint64_t cycle,
                          const std::vector<NodeId>& sensors) {
  const std::vector<NodeId> targets =
      sensors.empty() ? all_sensors(topo) : sensors;
  AckPlan out;
  out.covers_all = true;
  out.poll_paths = candidate_paths(topo, plan, cycle, targets);
  for (const auto& p : out.poll_paths)
    out.total_hops += static_cast<double>(p.size() - 1);
  return out;
}

}  // namespace mhp
