// Relaying-path management on top of the min-max-load flow solver.
//
// A RelayPlan holds every sensor's load-balanced relaying paths, rotates
// multi-path sensors across duty cycles in proportion to path flow
// (§V-D), and materialises the per-relay one-hop routing tables the paper
// proposes instead of source routes (§V-C).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "route/routing_engine.hpp"

namespace mhp {

class RelayPlan {
 public:
  /// Build from a solved routing problem.  Throws if infeasible.
  RelayPlan(const ClusterTopology& topo, MinMaxLoadResult solution);

  /// Convenience: solve min-max-load with `demand` and wrap the result.
  static RelayPlan balanced(const ClusterTopology& topo,
                            const std::vector<std::int64_t>& demand);

  /// Energy-aware variant (§III-A): sensor s may carry `weight[s]`×
  /// the base load — richer batteries take proportionally more relaying.
  static RelayPlan balanced_weighted(const ClusterTopology& topo,
                                     const std::vector<std::int64_t>& demand,
                                     const std::vector<std::int64_t>& weight);

  /// Convenience: hop-count shortest paths (the ablation baseline).
  static RelayPlan shortest(const ClusterTopology& topo,
                            const std::vector<std::int64_t>& demand);

  std::size_t num_sensors() const { return paths_.size(); }

  /// Minimized maximum per-cycle sensor load.
  std::int64_t max_load() const { return max_load_; }
  std::int64_t load(NodeId s) const { return load_.at(s); }
  const std::vector<std::int64_t>& loads() const { return load_; }

  const std::vector<UnitPath>& paths(NodeId s) const { return paths_.at(s); }

  /// Every sensor's path list, indexed by sensor.
  const std::vector<std::vector<UnitPath>>& all_paths() const {
    return paths_;
  }

  /// The path sensor s uses in duty cycle `cycle` — weighted round-robin
  /// over its paths in proportion to their flow units (§V-D).  Sensors
  /// with one path always get it.  Requires the sensor to have demand.
  const UnitPath& path_for_cycle(NodeId s, std::uint64_t cycle) const;

  /// The number of cycles after which every sensor's path_for_cycle
  /// repeats: the lcm of the multi-path sensors' windows (Σ units over
  /// their paths), 1 when no sensor has two paths.  nullopt when that lcm
  /// exceeds uint64: then no two distinct uint64 cycles share a phase.
  std::optional<std::uint64_t> rotation_period() const;

  /// One-hop routing table for relay `r`: origin sensor → next hop, for
  /// every dependent whose cycle-`cycle` path passes through r (§V-C).
  std::map<NodeId, NodeId> one_hop_table(NodeId r, std::uint64_t cycle) const;

  /// Dependents of sensor s under cycle `cycle`: sensors whose chosen
  /// path relays through s (used by sectoring, §IV).
  std::vector<NodeId> dependents(NodeId s, std::uint64_t cycle) const;

 private:
  std::vector<std::vector<UnitPath>> paths_;
  std::vector<std::int64_t> load_;
  std::int64_t max_load_ = 0;
  NodeId head_;
};

}  // namespace mhp
