// Node placement generators and geometric topology extraction.
//
// Deployments place n sensors plus the cluster head in the plane (the
// paper's evaluation deploys sensors uniformly in a square with the head at
// the centre).  A geometric disc model turns a deployment into a
// ClusterTopology for the algorithm-level code; the radio layer builds its
// own measured topology from SINR probing for the protocol-level code.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace mhp {

struct Deployment {
  /// positions[0..n-1] are the sensors, positions[n] is the cluster head.
  std::vector<Vec2> positions;

  std::size_t num_sensors() const { return positions.size() - 1; }
  Vec2 sensor_pos(NodeId s) const { return positions.at(s); }
  Vec2 head_pos() const { return positions.back(); }
};

/// Sensors uniform in a side×side square centred at the origin; head at the
/// centre.
Deployment deploy_uniform_square(std::size_t n, double side, Rng& rng);

/// Sensors on a √n×√n-ish grid filling the square (deterministic).
Deployment deploy_grid(std::size_t n, double side);

/// Sensors on concentric rings around the head: `per_ring` sensors per
/// ring, ring spacing `spacing`.  Guarantees a multi-hop structure.
Deployment deploy_rings(std::size_t rings, std::size_t per_ring,
                        double spacing);

/// Geometric disc connectivity: sensors within `sensor_range` of each other
/// are linked; the head hears sensors within `uplink_range` (defaults to
/// sensor_range — the head's *downlink* is assumed to cover the cluster
/// regardless).  Neighbor construction uses a spatial hash grid (cell =
/// sensor_range), O(n) expected for bounded-density deployments; the
/// resulting graph is identical to the all-pairs scan, edge order included.
ClusterTopology disc_topology(const Deployment& d, double sensor_range,
                              double uplink_range = 0.0);

/// The O(n²) all-pairs reference implementation of disc_topology, kept as
/// the oracle for the grid-vs-brute-force property tests and the
/// perf_scaling bench's speedup baseline.
ClusterTopology disc_topology_brute_force(const Deployment& d,
                                          double sensor_range,
                                          double uplink_range = 0.0);

/// Generic extraction from an arbitrary reachability predicate
/// `hears(from, to)` over node ids 0..n (n = head).  Sensor links are kept
/// only when reachability holds in both directions.
ClusterTopology topology_from_predicate(
    std::size_t n, const std::function<bool(NodeId, NodeId)>& hears);

/// Draw uniform-square deployments until the disc topology is fully
/// connected (every sensor has a relay path).  Throws after `max_tries`
/// draws, saying how many of them had a stranded sensor.  Adds the
/// counters `draws` (draws tried) and `stranded_draws` (rejected by the
/// stranded-sensor check) to the innermost open profiler span.
Deployment deploy_connected_uniform_square(std::size_t n, double side,
                                           double sensor_range, Rng& rng,
                                           int max_tries = 1000);

}  // namespace mhp
