#include "core/setup_phase.hpp"

#include <queue>

#include "core/interference.hpp"
#include "util/assertx.hpp"

namespace mhp {

SetupResult run_setup_discovery(const Channel& channel, std::size_t n) {
  MHP_REQUIRE(channel.num_nodes() == n + 1, "channel must hold n+1 nodes");
  const auto head = static_cast<NodeId>(n);

  SetupCost cost;
  std::vector<NodeId> temp_parent(n, kNoNode);
  std::vector<bool> discovered(n, false);

  // --- §V-A: level-by-level membership discovery -----------------------
  // HELLO broadcast from the head (its downlink reaches everyone).
  cost.discovery_slots += 1;
  std::vector<NodeId> frontier;
  for (NodeId s = 0; s < n; ++s) {
    if (channel.link_ok(s, head)) {
      discovered[s] = true;
      temp_parent[s] = head;
      frontier.push_back(s);
      // Registration reply: first-level sensors answer directly.
      cost.discovery_slots += 1;
    }
  }
  while (!frontier.empty()) {
    ++cost.discovery_rounds;
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      // v broadcasts a discovery beacon in its own slot.
      cost.discovery_slots += 1;
      for (NodeId w = 0; w < n; ++w) {
        if (discovered[w] || !channel.link_ok(v, w) ||
            !channel.link_ok(w, v))
          continue;
        discovered[w] = true;
        temp_parent[w] = v;  // first discoverer becomes the temp parent
        next.push_back(w);
        // Registration relayed to the head along the temp tree: one slot
        // per hop.
        std::size_t hops = 1;
        for (NodeId u = v; u != head; u = temp_parent[u]) ++hops;
        cost.discovery_slots += hops;
      }
    }
    frontier = std::move(next);
  }

  // --- §V-B: connectivity learning -------------------------------------
  // Every discovered sensor broadcasts once...
  for (NodeId s = 0; s < n; ++s)
    if (discovered[s]) cost.connectivity_slots += 1;
  // ...then reports who it heard, relayed along the temp tree.
  for (NodeId s = 0; s < n; ++s) {
    if (!discovered[s]) continue;
    std::size_t hops = 0;
    for (NodeId u = s; u != head; u = temp_parent[u]) ++hops;
    cost.connectivity_slots += hops;
  }

  // The learned topology: symmetric sensor links + head-decodable uplinks
  // (identical to the ground-truth predicate — the procedures probe with
  // a silent channel).
  auto topo = link_topology(channel, n);

  SetupResult result{std::move(topo), std::move(temp_parent), cost};
  return result;
}

SetupCost interference_probing_cost(
    const std::vector<std::vector<NodeId>>& paths, int order) {
  SetupCost cost;
  cost.probe_groups = MeasuredOracle::probe_count(
      transmissions_of_paths(paths).size(), order);
  // One slot to fire the group, one for the receivers' verdict report.
  cost.probe_slots = static_cast<std::size_t>(2 * cost.probe_groups);
  return cost;
}

}  // namespace mhp
