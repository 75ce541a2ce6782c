// One cluster's polling stack, and the field of stacks both polling
// facades drive.
//
// A ClusterStack performs the head's set-up for one cluster — connectivity
// discovery over the SINR channel (§V-B), load-balanced routing (§III-A),
// optional sector partitioning (§IV), ack-collection cover (§V-F) and
// M-wise interference probing (§V-E) — wires the head and sensor agents,
// re-plans after the head declares a death, and exports per-node metrics.
//
// The cluster's n sensors and its head sit at channel ids [base, base+n]
// (the head last).  Topology, routing and sector partitions use local ids
// (sensor s, head n); sector plans, oracles and agents use channel ids.
//
// A ClusterField is a §V-G field: clusters that each run the
// single-cluster protocol.  It owns the runtime, the channel groups, one
// stack per cluster, the routing batch, fault wiring by field-wide
// sensor id, the replan handlers, the warm-up and measured windows and
// the degradation and oracle-cache roll-ups.  Every stack schedules
// through a pair-screening CachedOracle over its MeasuredOracle; the
// field publishes the caches' measured-window hits and misses into the
// registry once, when the window ends.  PollingSimulation is a
// field of one cluster at origin 0 on one channel; MultiClusterSimulation
// adds colouring and token windows on top.
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
#include "net/deployment.hpp"
#include "route/routing_engine.hpp"
#include "sim/runtime.hpp"

namespace mhp {

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
  /// otherwise the stored plans.  The rotating plan is rebuilt only when
  /// `cycle` falls in another phase of the relay plan's rotation period
  /// than the plan it holds, so with one path per sensor never.
  const std::vector<SectorPlan>& plans(std::uint64_t cycle) override;
  /// Flat sectors rebuilt by plans() for a new rotation phase.
  std::uint64_t plan_builds() const { return plan_builds_; }

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
  const MeasuredOracle& oracle() const { return oracle_->measured; }
  HeadAgent& head() { return *head_; }
  /// Sensor by local id.
  SensorAgent& sensor(NodeId s) { return *sensors_.at(s); }
  /// Alive sensors left without a relay path by the latest repair.
  std::uint64_t orphaned() const { return orphaned_; }

 private:
  /// One probe's knowledge (§V-E): the measured oracle and the
  /// pair-screening cache over it that the head schedules through.  Pair
  /// screening is sound here: the measured oracle inherits SINR
  /// monotonicity (an interfering pair interferes in every superset).
  struct ProbedOracle {
    ProbedOracle(const CompatibilityOracle& truth,
                 std::span<const Tx> universe, int order)
        : measured(truth, universe, order),
          cached(measured, CachedOracle::PairScreen::kOn) {}
    ProbedOracle(const ProbedOracle&) = delete;
    ProbedOracle& operator=(const ProbedOracle&) = delete;

    MeasuredOracle measured;
    CachedOracle cached;  // refers to `measured`
  };

  /// One sector over every sensor that has a path in the current plan,
  /// with its cycle-`cycle` path.
  SectorPlan flat_sector(std::uint64_t cycle) const;
  std::vector<NodeId> to_channel(std::vector<NodeId> path) const;
  /// §V-E: measure interference over the transmissions the plans use
  /// (every unit path while rotating).  A replaced probe retires rather
  /// than dies: the head's current phase may still hold its cache.
  void probe();

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
  /// The set-up plan's rotation period; nullopt if it exceeds uint64.
  std::optional<std::uint64_t> period_;
  std::uint64_t plan_builds_ = 0;
  std::unique_ptr<ChannelOracle> truth_;
  std::unique_ptr<ProbedOracle> oracle_;
  std::vector<std::unique_ptr<ProbedOracle>> retired_oracles_;
  std::unique_ptr<HeadAgent> head_;
  std::vector<std::unique_ptr<SensorAgent>> sensors_;
  std::vector<NodeId> declared_dead_;  // local ids, in declaration order
  std::uint64_t orphaned_ = 0;
};

/// One cluster of a field: its deployment (positions in the cluster's own
/// frame, head last), where that frame sits in the field, the channel
/// group it polls on, and one data rate per sensor (bytes/s).
struct FieldCluster {
  const Deployment* deployment = nullptr;
  Vec2 origin;
  std::size_t group = 0;
  std::vector<double> rates_bps;
};

/// A facade's span names ("polling/…", "mc/…"): string literals, since
/// the profiler keys a span by its name's address.
struct FieldSpans {
  const char* warmup;
  const char* measured;
  const char* replan;
};

/// The roll-ups a field adds to either facade's report.
struct FieldRollup {
  /// Present iff the run had fault injection or recovery enabled
  /// (cfg.faults non-empty or cfg.recovery.enabled); absent reports keep
  /// fault-free runs byte-identical to pre-fault builds.  Node ids are
  /// field-wide; each head repairs only its own cluster.
  std::optional<DegradationReport> degradation;
  /// Oracle-cache effectiveness over the whole run, summed over every
  /// cluster's live cache and the caches retired by replans;
  /// deterministic (a pure function of the schedule).
  OracleCacheStats oracle;
};

class ClusterField {
 public:
  /// Every stack runs `cfg`, as the facade settled it (sectors, path
  /// rotation); the runtime is seeded from cfg.seed.
  ClusterField(ProtocolConfig cfg, const RuntimeOptions& rt_opts,
               FieldSpans spans);

  /// Set-up: one channel per group, nodes concatenated cluster by cluster
  /// ("channel" span); one stack per cluster ("topology"); every
  /// cluster's routing in one route::solve_clusters batch on
  /// RuntimeOptions::route_workers threads ("routing"); each stack's
  /// sectors, oracle and agents, cluster c's head drawing from
  /// root.split(head_stream + c) and its sensors from c·1000; the fault
  /// plan and recovery; then head c starts at 10 ms + c·stagger.
  void set_up(std::span<const FieldCluster> clusters,
              std::uint64_t head_stream, Time stagger);

  /// Warm up to `warmup`, reset the statistics, then run the measured
  /// window to `duration` (its span counts events, frames, oracle use
  /// and rotating-plan rebuilds).  The window's cache hits and misses
  /// are then added to metric::kOracleCacheHit / kOracleCacheMiss.
  void run(Time duration, Time warmup);
  /// Settle every sensor's meter; export its series by field-wide id.
  void export_nodes();
  /// Degradation and oracle-cache roll-ups over every cluster.
  FieldRollup roll_up();
  std::uint64_t generated() const;
  std::uint64_t delivered() const;

  const ProtocolConfig& config() const { return cfg_; }
  SimRuntime& runtime() { return rt_; }
  std::size_t size() const { return stacks_.size(); }
  ClusterStack& stack(std::size_t c) const { return *stacks_[c]; }

 private:
  /// cfg.faults by field-wide sensor id (sensors numbered cluster by
  /// cluster, heads excluded; a death outside the field throws here),
  /// then arm(); with cfg.recovery on, each head's replan handler.  An
  /// empty plan with recovery off installs nothing.
  void wire_faults();
  /// Sensor by field-wide id; throws outside the field.
  SensorAgent& sensor(NodeId field_id) const;
  std::uint64_t plan_builds() const;
  /// Every stack's cache counters, live and retired.
  OracleCacheStats cache_stats() const;

  ProtocolConfig cfg_;  // the stacks and their agents refer to it
  SimRuntime rt_;
  std::size_t route_workers_;
  FieldSpans spans_;
  /// Arena-reusing engine for replans.
  route::RoutingEngine engine_;
  std::vector<std::unique_ptr<ClusterStack>> stacks_;
  DeliveryLedger ledger_;  // field-wide; untouched when faults are off
};

}  // namespace mhp
