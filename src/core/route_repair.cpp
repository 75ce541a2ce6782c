#include "core/route_repair.hpp"

#include "obs/profiler.hpp"
#include "route/routing_engine.hpp"
#include "util/assertx.hpp"

namespace mhp {

RouteRepair repair_routes(const ClusterTopology& topo,
                          const std::vector<NodeId>& dead,
                          std::vector<std::int64_t> demand,
                          RoutingPolicy routing,
                          route::RoutingEngine* engine) {
  MHP_SPAN("fault/repair_routes");
  const std::size_t n = topo.num_sensors();
  MHP_REQUIRE(demand.size() == n, "demand size mismatch");
  std::vector<bool> alive(n, true);
  for (NodeId d : dead) {
    MHP_REQUIRE(d < n, "dead node outside the cluster");
    alive[d] = false;
  }

  // Surviving topology: drop every edge touching a dead node and the
  // head's uplinks from dead nodes; ids stay stable.
  Graph links(n);
  std::vector<bool> hears(n, false);
  for (NodeId a = 0; a < n; ++a) {
    if (!alive[a]) continue;
    hears[a] = topo.head_hears(a);
    for (NodeId b : topo.sensor_links().neighbors(a))
      if (a < b && alive[b]) links.add_edge(a, b);
  }
  ClusterTopology survived(std::move(links), std::move(hears));

  std::vector<NodeId> orphaned;
  for (NodeId s = 0; s < n; ++s) {
    if (!alive[s]) {
      demand[s] = 0;
    } else if (survived.level(s) == ClusterTopology::kUnreachable) {
      demand[s] = 0;
      orphaned.push_back(s);
    }
  }

  route::RoutingEngine local_engine;
  route::RoutingEngine& eng = engine != nullptr ? *engine : local_engine;
  return RouteRepair{
      RelayPlan(survived, eng.solve(routing, survived, demand)),
      std::move(orphaned)};
}

}  // namespace mhp
