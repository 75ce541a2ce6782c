// Declarative fault plans: which nodes die (and when, or at what energy
// budget) and which links degrade (and for how long).  A FaultPlan is a
// value the experiment harness builds up-front and hands to a simulation
// stack through its config; the runtime-side FaultInjector turns it into
// scheduled events.
//
// An empty plan is the default everywhere and must be behaviourally
// invisible: stacks only install an injector when the plan is non-empty,
// so faults-disabled runs stay byte-identical to builds without this
// subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "sim/time.hpp"

namespace mhp {

struct NodeDeath {
  enum class Cause {
    kScripted,  // dies at an absolute sim time
    kBattery,   // dies when cumulative radio energy reaches battery_j
  };
  NodeId node = kNoNode;
  Cause cause = Cause::kScripted;
  Time at = Time::zero();  // kScripted only
  double battery_j = 0.0;  // kBattery only; counted from boot
};

/// Extra frame loss on a symmetric node pair during [begin, end).
struct LinkDegradation {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  Time begin = Time::zero();
  Time end = Time::zero();
  double loss = 1.0;  // probability a frame on the link is dropped
};

class FaultPlan {
 public:
  /// Kill `node` at absolute sim time `at`.
  FaultPlan& kill_at(NodeId node, Time at);
  /// Kill `node` once its radio has consumed `battery_j` joules.
  FaultPlan& kill_on_battery(NodeId node, double battery_j);
  /// Drop frames between `a` and `b` (both directions) with probability
  /// `loss` during [begin, end).
  FaultPlan& degrade_link(NodeId a, NodeId b, Time begin, Time end,
                          double loss);

  bool empty() const { return deaths_.empty() && degradations_.empty(); }
  const std::vector<NodeDeath>& deaths() const { return deaths_; }
  const std::vector<LinkDegradation>& degradations() const {
    return degradations_;
  }

 private:
  std::vector<NodeDeath> deaths_;
  std::vector<LinkDegradation> degradations_;
};

/// What the faults did to a run; exported as the report's `degradation`
/// block (present only when a fault plan or recovery was configured).
struct DegradationReport {
  std::uint64_t deaths = 0;           // nodes that actually died
  std::uint64_t deaths_detected = 0;  // deaths the head declared
  std::uint64_t replans = 0;          // successful route repairs
  std::uint64_t orphaned_sensors = 0; // alive but unroutable after repair
  std::vector<NodeId> dead_nodes;     // in death order
  double delivery_before = 0.0;  // delivery ratio up to the first death
  double delivery_after = 0.0;   // from the last repair (or death) on
};

}  // namespace mhp
