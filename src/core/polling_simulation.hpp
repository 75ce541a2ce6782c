// The public facade: set up and run a complete in-cluster polling
// simulation (the paper's §VI experiments are driven through this).
//
// Construction performs the head's set-up phases in one shot through a
// ClusterStack at channel base 0: connectivity discovery over the SINR
// channel (§V-B), load-balanced routing (§III-A), optional sector
// partitioning (§IV), ack-collection cover (§V-F) and M-wise
// interference probing (§V-E).  run() then executes duty cycles on the
// discrete-event simulator.
//
// All substrate (Simulator, Channel, Trace, metrics, RNG) is owned by a
// SimRuntime; this class wires faults, recovery and the report on top.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/cluster_stack.hpp"
#include "core/interference.hpp"
#include "core/protocol_config.hpp"
#include "fault/fault_plan.hpp"
#include "net/deployment.hpp"
#include "route/routing_engine.hpp"
#include "sim/runtime.hpp"

namespace mhp {

/// Aggregated results of a measurement window.  The shared core
/// (throughput, delivery, activity, metrics snapshot) lives in RunStats;
/// the fields here are specific to the polling stack.
struct SimulationReport : RunStats {
  std::uint64_t packets_lost = 0;  // aborted + retry-exhausted + overflow
  double max_active_fraction = 0.0;
  double mean_sensor_power_w = 0.0;
  double max_sensor_power_w = 0.0;
  double mean_duty_seconds = 0.0;  // per sector drain
  std::size_t sectors = 1;

  /// Present iff the run had fault injection or recovery enabled
  /// (cfg.faults non-empty or cfg.recovery.enabled); absent reports keep
  /// fault-free runs byte-identical to pre-fault builds.
  std::optional<DegradationReport> degradation;

  /// Compatibility-oracle cache effectiveness, summed over the live
  /// cache and every wrapper retired by replans.  Present iff
  /// cfg.cache_oracle; deterministic (pure function of the schedule).
  std::optional<OracleCacheStats> oracle;

  /// Time until the first sensor exhausts `battery_j` joules at the
  /// measured power draw.  +infinity when no sensor drew any power — an
  /// idle cluster never exhausts a battery (callers that plot or rank
  /// lifetimes must expect the infinity, not a 0.0 sentinel).
  double lifetime_s(double battery_j) const {
    return max_sensor_power_w > 0.0
               ? battery_j / max_sensor_power_w
               : std::numeric_limits<double>::infinity();
  }
};

class PollingSimulation {
 public:
  /// `rates_bps[s]`: data generation rate of sensor s in bytes/s.
  PollingSimulation(const Deployment& deployment, ProtocolConfig cfg,
                    std::vector<double> rates_bps,
                    const RuntimeOptions& rt_opts = {});
  /// Same rate for every sensor.
  PollingSimulation(const Deployment& deployment, ProtocolConfig cfg,
                    double rate_bps, const RuntimeOptions& rt_opts = {});

  PollingSimulation(const PollingSimulation&) = delete;
  PollingSimulation& operator=(const PollingSimulation&) = delete;

  /// Run `duration` of simulated time; statistics cover everything after
  /// `warmup`.
  SimulationReport run(Time duration, Time warmup = Time::sec(10));

  // --- introspection (valid after construction) ---
  const ClusterTopology& topology() const { return stack_->topology(); }
  /// The plan the head polls by: set-up routing, or the latest repair.
  const RelayPlan& relay_plan() const { return stack_->relay_plan(); }
  const std::optional<SectorPartition>& sector_partition() const {
    return stack_->sector_partition();
  }
  const MeasuredOracle& oracle() const { return stack_->oracle(); }
  SimRuntime& runtime() { return rt_; }
  Simulator& simulator() { return rt_.sim(); }
  /// Protocol trace (enable categories before run() to collect entries).
  Trace& trace() { return rt_.trace(); }
  MetricsRegistry& metrics() { return rt_.metrics(); }
  const HeadAgent& head() const { return stack_->head(); }
  const SensorAgent& sensor(NodeId s) const { return stack_->sensor(s); }
  std::size_t num_sensors() const { return stack_->num_sensors(); }

 private:
  ProtocolConfig cfg_;
  SimRuntime rt_;
  /// Owns the flow arenas for set-up routing and every replan.
  route::RoutingEngine engine_;
  std::unique_ptr<ClusterStack> stack_;
  DeliveryLedger ledger_;  // untouched when faults are off
};

}  // namespace mhp
