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
// The field itself — runtime, one channel per colour group, one
// ClusterStack per cluster at its own base on that channel, routing,
// faults, recovery and the measurement windows — is a ClusterField, the
// same driver PollingSimulation runs one cluster on.  This class adds the
// colouring, the token windows, its preconditions and the per-cluster
// report.
//
// The protocol config applies as in PollingSimulation (routing,
// propagation, oracle order, faults, recovery), except that
// heads poll fixed cycle-0 paths: rotate_paths does not apply here, and
// use_sectors and link-degradation windows are rejected.
#pragma once

#include <vector>

#include "core/cluster_stack.hpp"
#include "core/protocol_config.hpp"
#include "net/deployment.hpp"
#include "sim/runtime.hpp"

namespace mhp {

enum class InterClusterMode { kShared, kColored, kToken };

struct ClusterSpec {
  Deployment deployment;  // positions relative to the cluster's own frame
  Vec2 origin;            // where this cluster sits in the field
};

struct MultiClusterReport : FieldRollup {
  std::vector<double> delivery_ratio;  // per cluster
  std::vector<double> mean_active;     // per cluster
  double aggregate_delivery = 0.0;
  double aggregate_throughput_bps = 0.0;
  int channels_used = 1;
  /// Field-wide totals populated from the runtime's MetricsRegistry.
  RunStats totals;
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
  SimRuntime& runtime() { return field_.runtime(); }

 private:
  ClusterField field_;
  int channels_used_ = 1;
};

}  // namespace mhp
