// The cluster's one-time set-up procedures (§V-A, §V-B, §V-E) with
// explicit cost accounting.
//
// Before the duty-cycle regime can start the head must learn, by
// airtime-consuming procedures, (1) which sensors belong to the cluster
// and how to reach them, (2) the full connectivity pattern, and (3) the
// M-wise interference pattern of the transmissions its relaying plans
// use.  Each procedure transmits in dedicated slots with nothing else on
// the air, so outcomes follow the channel's interference-free link test;
// what this module adds is the *slot budget* each phase costs — the
// set-up price the paper's sectoring argument (§IV) is about.
#pragma once

#include <cstdint>
#include <vector>

#include "net/cluster.hpp"
#include "radio/channel.hpp"
#include "sim/time.hpp"

namespace mhp {

struct SetupCost {
  /// §V-A level-by-level membership discovery: one HELLO slot, one
  /// broadcast slot per discovered sensor, and one relayed registration
  /// per newly found sensor (its hop count in slots).
  std::size_t discovery_slots = 0;
  std::size_t discovery_rounds = 0;  // BFS levels walked

  /// §V-B connectivity learning: every member broadcasts once, then its
  /// neighbor list is relayed to the head along the temporary tree.
  std::size_t connectivity_slots = 0;

  /// §V-E interference probing: per group one test slot plus one result
  /// slot (receivers report what they decoded).
  std::uint64_t probe_groups = 0;
  std::size_t probe_slots = 0;
};

struct SetupResult {
  ClusterTopology topology;  // as discovered (== ground truth links)
  /// Temporary relaying parent per sensor from the discovery BFS
  /// (first discoverer, §V-A); head for first-level sensors.
  std::vector<NodeId> temp_parent;
  SetupCost cost;
};

/// Run membership discovery + connectivity learning against the channel.
/// `n` = number of sensors (ids 0..n-1; the head is node n).
SetupResult run_setup_discovery(const Channel& channel, std::size_t n);

/// The §V-E probing cost of a set of relaying paths at order M: every
/// group of 2..M of the transmissions they use (only the probe fields are
/// populated).
SetupCost interference_probing_cost(
    const std::vector<std::vector<NodeId>>& paths, int order);

}  // namespace mhp
