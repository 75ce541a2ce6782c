// One cluster's polling stack, shared by both polling facades.
//
// A ClusterStack performs the head's set-up for one cluster — connectivity
// discovery over the SINR channel (§V-B), load-balanced routing (§III-A),
// optional sector partitioning (§IV), ack-collection cover (§V-F) and
// M-wise interference probing (§V-E) — wires the head and sensor agents,
// re-plans after the head declares a death, and exports per-node metrics.
// PollingSimulation drives one stack at channel base 0;
// MultiClusterSimulation drives one stack per cluster of a §V-G field.
//
// The cluster's n sensors and its head sit at channel ids [base, base+n]
// (the head last).  Topology, routing and sector partitions use local ids
// (sensor s, head n); sector plans, oracles and agents use channel ids.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/head_agent.hpp"
#include "core/interference.hpp"
#include "core/protocol_config.hpp"
#include "core/routing.hpp"
#include "core/sectors.hpp"
#include "core/sensor_agent.hpp"
#include "net/cluster.hpp"
#include "radio/propagation.hpp"
#include "route/routing_engine.hpp"
#include "sim/runtime.hpp"

namespace mhp {

/// The propagation model `cfg.propagation` names, with cfg's shadowing
/// parameters.
std::unique_ptr<Propagation> make_propagation(const ProtocolConfig& cfg);

class ClusterStack : public CyclePlanProvider {
 public:
  /// Discover the cluster's topology on `channel` and its routing demand
  /// (`rates_bps[s]` bytes/s for sensor s; one rate per sensor).  `rt`,
  /// `channel` and `cfg` must outlive the stack.
  ClusterStack(SimRuntime& rt, Channel& channel, NodeId base,
               const ProtocolConfig& cfg, std::vector<double> rates_bps);

  ClusterStack(const ClusterStack&) = delete;
  ClusterStack& operator=(const ClusterStack&) = delete;

  /// The set-up routing problem: topology, demand and cfg.routing.
  route::ClusterRouteJob route_job() const;

  /// Sectors, probed (and cached) oracle, head and sensor agents over
  /// the set-up `routes`.  The head draws from root.split(head_stream),
  /// sensor s from root.split(sensor_stream + s + 1).  Sectors need
  /// base 0: the partitioner probes the channel with local ids.
  void build(MinMaxLoadResult routes, std::uint64_t head_stream,
             std::uint64_t sensor_stream);

  /// Re-route around every sensor the head has declared dead so far
  /// (`declared` is a channel id), re-probe, and hand the head one flat
  /// sector over the survivors with fixed cycle-0 paths.
  void replan(NodeId declared, route::RoutingEngine& engine);

  /// While rotating (§V-D), the flat sector over cycle `cycle`'s paths;
  /// otherwise the stored plans.
  const std::vector<SectorPlan>& plans(std::uint64_t cycle) override;

  void reset_stats(Time now);
  /// Settle every sensor's meter and export its per-node series under
  /// field id `field_base + s`.
  void export_nodes(std::uint64_t field_base);
  /// Add the live cache's counters and every retired one's to `out`.
  void add_cache_stats(OracleCacheStats& out) const;
  std::uint64_t generated() const;
  std::uint64_t delivered() const { return head_->packets_received(); }

  std::size_t num_sensors() const { return rates_.size(); }
  const ClusterTopology& topology() const { return topo_; }
  /// The plan the head polls by: set-up routing, or the latest repair.
  const RelayPlan& relay_plan() const { return *plan_; }
  const std::optional<SectorPartition>& sector_partition() const {
    return partition_;
  }
  const MeasuredOracle& oracle() const { return *oracle_; }
  HeadAgent& head() { return *head_; }
  /// Sensor by local id.
  SensorAgent& sensor(NodeId s) { return *sensors_.at(s); }
  /// Alive sensors left without a relay path by the latest repair.
  std::uint64_t orphaned() const { return orphaned_; }

 private:
  /// One sector over every sensor that has a path in the current plan,
  /// with its cycle-`cycle` path.
  SectorPlan flat_sector(std::uint64_t cycle) const;
  std::vector<NodeId> to_channel(std::vector<NodeId> path) const;
  /// §V-E: measure interference over the transmissions the plans use
  /// (every unit path while rotating).  A replaced oracle retires rather
  /// than dies: the head's current phase may still hold it.
  void probe();
  /// The oracle the head schedules through: the measured one, or a fresh
  /// CachedOracle over it (counters bound to the runtime registry) when
  /// cfg.cache_oracle is on.  Call after every probe().
  const CompatibilityOracle& scheduling_oracle();

  SimRuntime& rt_;
  Channel& channel_;
  const ProtocolConfig& cfg_;
  NodeId base_;
  std::vector<double> rates_;
  ClusterTopology topo_;
  std::vector<std::int64_t> demand_;  // set-up routing demand per sensor
  std::unique_ptr<RelayPlan> plan_;
  std::optional<SectorPartition> partition_;
  std::vector<SectorPlan> plans_;
  bool rotating_ = false;
  std::uint64_t plans_cycle_ = 0;  // the cycle plans_ holds while rotating
  std::unique_ptr<ChannelOracle> truth_;
  std::unique_ptr<MeasuredOracle> oracle_;
  std::unique_ptr<CachedOracle> cache_;
  std::vector<std::unique_ptr<MeasuredOracle>> retired_oracles_;
  std::vector<std::unique_ptr<CachedOracle>> retired_caches_;
  std::unique_ptr<HeadAgent> head_;
  std::vector<std::unique_ptr<SensorAgent>> sensors_;
  std::vector<NodeId> declared_dead_;  // local ids, in declaration order
  std::uint64_t orphaned_ = 0;
};

/// When the runtime has a sampler, push the live gauges it watches
/// (sample::) from `stacks` before each tick: the standard counters reach
/// the registry only at the end of a run.  `stacks` must stay valid.
void sample_clusters(SimRuntime& rt,
                     std::span<const std::unique_ptr<ClusterStack>> stacks);

}  // namespace mhp
