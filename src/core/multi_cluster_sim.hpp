// Multiple clusters in one field (§V-G): quantify inter-cluster
// interference and the paper's two remedies.
//
//  * kShared  — every cluster polls on one radio channel; boundary
//    sensors of neighboring clusters collide (the problem).
//  * kColored — clusters get channels from a colouring of the cluster
//    adjacency graph (≤6 needed, planar); same-colour clusters are far
//    apart, different colours are modelled as isolated channels.
//  * kToken   — one shared channel, but heads take turns: head k drains
//    in window k of each cycle (period/K each), so no two clusters are
//    ever on the air together.
//
// Substrate (simulator, per-group channels, trace, metrics, RNG) comes
// from one shared SimRuntime; one channel is added per colour group, and
// each cluster runs on a ClusterStack at its own base on that channel.
//
// The protocol config applies as in PollingSimulation (routing,
// propagation, oracle order and cache, faults, recovery), except that
// heads poll fixed cycle-0 paths: rotate_paths does not apply here, and
// use_sectors is rejected.
#pragma once

#include <memory>
#include <vector>

#include "core/cluster_stack.hpp"
#include "core/polling_simulation.hpp"
#include "core/protocol_config.hpp"
#include "net/deployment.hpp"
#include "sim/runtime.hpp"

namespace mhp {

enum class InterClusterMode { kShared, kColored, kToken };

struct ClusterSpec {
  Deployment deployment;  // positions relative to the cluster's own frame
  Vec2 origin;            // where this cluster sits in the field
};

struct MultiClusterReport {
  std::vector<double> delivery_ratio;  // per cluster
  std::vector<double> mean_active;     // per cluster
  double aggregate_delivery = 0.0;
  double aggregate_throughput_bps = 0.0;
  int channels_used = 1;
  /// Field-wide totals populated from the runtime's MetricsRegistry.
  RunStats totals;
  /// Present iff the run had fault injection or recovery enabled.
  /// Fault-plan node ids (and dead_nodes here) are *field-wide* sensor
  /// ids: sensors numbered consecutively cluster by cluster, heads
  /// excluded.  Repairs happen per cluster at the owning head.
  std::optional<DegradationReport> degradation;
  /// Field-wide oracle-cache effectiveness, summed over every cluster's
  /// live cache plus wrappers retired by replans.  Present iff
  /// cfg.cache_oracle.
  std::optional<OracleCacheStats> oracle;
};

class MultiClusterSimulation {
 public:
  MultiClusterSimulation(std::vector<ClusterSpec> clusters,
                         ProtocolConfig cfg, InterClusterMode mode,
                         double rate_bps,
                         double interference_range = 400.0,
                         const RuntimeOptions& rt_opts = {});

  MultiClusterSimulation(const MultiClusterSimulation&) = delete;
  MultiClusterSimulation& operator=(const MultiClusterSimulation&) = delete;

  MultiClusterReport run(Time duration, Time warmup = Time::sec(10));

  int channels_used() const { return channels_used_; }
  SimRuntime& runtime() { return rt_; }
  MetricsRegistry& metrics() { return rt_.metrics(); }

 private:
  SensorAgent& sensor_by_field_id(NodeId field_id);
  std::uint64_t sum_generated() const;
  std::uint64_t sum_delivered() const;

  ProtocolConfig cfg_;
  /// cfg_ with fixed cycle-0 paths and the token drain window; the
  /// stacks and their agents keep a reference to it.
  ProtocolConfig stack_cfg_;
  InterClusterMode mode_;
  SimRuntime rt_;
  /// Arena-reusing engine for replans (set-up solves fan out through
  /// route::solve_clusters on RuntimeOptions::route_workers threads).
  route::RoutingEngine engine_;
  std::vector<std::unique_ptr<ClusterStack>> stacks_;
  int channels_used_ = 1;
  DeliveryLedger ledger_;  // field-wide; untouched when faults are off
};

}  // namespace mhp
