// Runtime side of fault injection: schedules a FaultPlan's scripted
// deaths on the simulator, collects battery exhaustions reported by the
// agents, and answers link-degradation queries.
//
// The injector is deliberately stack-agnostic: it knows node ids and sim
// time, nothing about sensors or heads.  The owning simulation installs
// a death handler that applies the death to its own agents and does its
// degradation bookkeeping.
#pragma once

#include <functional>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace mhp {

class FaultInjector {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);

  using DeathHandler = std::function<void(const NodeDeath&)>;
  /// Install before arm(); invoked exactly once per node that dies.
  void set_death_handler(DeathHandler fn) { on_death_ = std::move(fn); }

  /// Schedule the plan's scripted deaths.  Battery deaths are driven by
  /// the agents (wired by the owning stack) via battery_exhausted().
  void arm();

  /// An agent's battery budget ran out; fires the death handler.
  void battery_exhausted(NodeId node);

  /// Extra loss probability on the (from, to) link at `now`; 0 outside
  /// every degradation window.  Overlapping windows combine as
  /// independent drops.
  double link_loss(NodeId from, NodeId to, Time now) const;

  bool is_dead(NodeId node) const;
  const std::vector<NodeId>& dead_nodes() const { return dead_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void fire(const NodeDeath& d);

  Simulator& sim_;
  FaultPlan plan_;
  DeathHandler on_death_;
  bool armed_ = false;
  std::vector<NodeId> dead_;
};

}  // namespace mhp
