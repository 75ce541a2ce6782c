// The public facade: set up and run a complete in-cluster polling
// simulation (the paper's §VI experiments are driven through this).
//
// A PollingSimulation is a ClusterField of one cluster at origin 0 on one
// channel.  Construction performs the head's set-up phases in one shot:
// connectivity discovery over the SINR channel (§V-B), load-balanced
// routing (§III-A), optional sector partitioning (§IV), ack-collection
// cover (§V-F) and M-wise interference probing (§V-E).  run() then
// executes duty cycles on the discrete-event simulator.
//
// The field owns the runtime, the stack, faults, recovery and the
// measurement windows; this class adds what only a single cluster has —
// sectors, path rotation — and the polling report.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/cluster_stack.hpp"
#include "core/interference.hpp"
#include "core/protocol_config.hpp"
#include "net/deployment.hpp"
#include "sim/runtime.hpp"

namespace mhp {

/// Aggregated results of a measurement window.  The shared core
/// (throughput, delivery, activity, metrics snapshot) lives in RunStats,
/// the degradation and oracle blocks in FieldRollup; the fields here are
/// specific to the polling stack.
struct SimulationReport : RunStats, FieldRollup {
  std::uint64_t packets_lost = 0;  // aborted + retry-exhausted + overflow
  double max_active_fraction = 0.0;
  double mean_sensor_power_w = 0.0;
  double max_sensor_power_w = 0.0;
  double mean_duty_seconds = 0.0;  // per sector drain
  std::size_t sectors = 1;

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
  const ClusterTopology& topology() const { return stack().topology(); }
  /// The plan the head polls by: set-up routing, or the latest repair.
  const RelayPlan& relay_plan() const { return stack().relay_plan(); }
  const std::optional<SectorPartition>& sector_partition() const {
    return stack().sector_partition();
  }
  const MeasuredOracle& oracle() const { return stack().oracle(); }
  MetricsRegistry& metrics() { return field_.runtime().metrics(); }
  const HeadAgent& head() const { return stack().head(); }
  const SensorAgent& sensor(NodeId s) const { return stack().sensor(s); }
  std::size_t num_sensors() const { return stack().num_sensors(); }

 private:
  ClusterStack& stack() const { return field_.stack(0); }

  ClusterField field_;
};

}  // namespace mhp
