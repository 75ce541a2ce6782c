// Head-side route repair after a node death (fault-recovery subsystem).
//
// When the head declares a node dead it re-runs the same §III-A routing
// on the surviving topology: the dead node's edges disappear, sensors
// with no remaining relay path to the head are orphaned (demand dropped),
// and the result is a new relay plan.  The caller drains the repaired
// cluster as one flat sector over the sensors that still have a path;
// sectoring and path rotation are suspended after a repair.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol_config.hpp"
#include "core/routing.hpp"
#include "net/cluster.hpp"

namespace mhp::route {
class RoutingEngine;
}

namespace mhp {

/// Everything a repair produces.  Dead and orphaned sensors have no
/// paths in `plan`; every other sensor keeps at least one.
struct RouteRepair {
  RelayPlan plan;  // over the surviving topology (dead nodes isolated)
  /// Alive sensors left without any relay path to the head.
  std::vector<NodeId> orphaned;
};

/// Re-route `topo` minus `dead`.  `demand[s]` is the per-cycle packet
/// demand used at set-up; dead and orphaned sensors are re-solved with
/// zero demand.  When no sensor survives with a path the plan is feasible
/// and empty, and `orphaned` lists every survivor.
///
/// `engine` (optional) solves on a caller-owned RoutingEngine so repeated
/// repairs reuse its arenas; results are identical without it.
RouteRepair repair_routes(const ClusterTopology& topo,
                          const std::vector<NodeId>& dead,
                          std::vector<std::int64_t> demand,
                          RoutingPolicy routing,
                          route::RoutingEngine* engine = nullptr);

}  // namespace mhp
