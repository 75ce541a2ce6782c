// Facade for the S-MAC + AODV baseline runs of Fig 7(b): same deployment
// and channel as the polling simulation, but every node contends with
// S-MAC and routes with AODV toward the cluster head (sink).
//
// Substrate (simulator, channel, metrics, RNG) comes from the
// same SimRuntime layer the polling stacks use, so cross-stack features
// and report cores stay uniform.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "baseline/smac_config.hpp"
#include "baseline/smac_node.hpp"
#include "net/deployment.hpp"
#include "sim/runtime.hpp"

namespace mhp {

/// Shared report core in RunStats; baseline-specific overheads here.
struct SmacReport : RunStats {
  std::uint64_t packets_dropped = 0;
  std::uint64_t control_frames = 0;   // RTS/CTS/ACK + routing
  std::uint64_t rreq_floods = 0;
  std::uint64_t mac_failures = 0;
  /// Present iff cfg.faults is non-empty.  The baseline performs no
  /// explicit detection or replanning (deaths_detected/replans/
  /// orphaned_sensors stay 0); delivery before/after brackets the first
  /// injected death, with AODV re-discovery as the only recovery.
  std::optional<DegradationReport> degradation;
};

class SmacSimulation {
 public:
  /// `rates_bps[s]`: CBR rate of sensor s in bytes/s; the head (last node
  /// of the deployment) is the always-on sink.
  SmacSimulation(const Deployment& deployment, SmacConfig cfg,
                 std::vector<double> rates_bps,
                 const RuntimeOptions& rt_opts = {});
  SmacSimulation(const Deployment& deployment, SmacConfig cfg,
                 double rate_bps, const RuntimeOptions& rt_opts = {});

  SmacSimulation(const SmacSimulation&) = delete;
  SmacSimulation& operator=(const SmacSimulation&) = delete;

  SmacReport run(Time duration, Time warmup = Time::sec(10));

  SimRuntime& runtime() { return rt_; }
  MetricsRegistry& metrics() { return rt_.metrics(); }
  const SmacNode& node(NodeId i) const { return *nodes_.at(i); }
  std::size_t num_sensors() const { return nodes_.size() - 1; }

 private:
  void on_node_death(const NodeDeath& death);
  std::uint64_t sum_generated() const;

  SmacConfig cfg_;
  std::vector<double> rates_;
  SimRuntime rt_;
  std::vector<std::unique_ptr<SmacNode>> nodes_;  // sensors then sink
  /// First-death snapshot (no repairs here; untouched when faults are off).
  DeliveryLedger ledger_;
};

}  // namespace mhp
