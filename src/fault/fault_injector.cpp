#include "fault/fault_injector.hpp"

#include <algorithm>
#include <utility>

#include "util/assertx.hpp"

namespace mhp {

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {}

void FaultInjector::arm() {
  MHP_REQUIRE(!armed_, "fault injector armed twice");
  armed_ = true;
  for (const NodeDeath& d : plan_.deaths()) {
    if (d.cause != NodeDeath::Cause::kScripted) continue;
    MHP_REQUIRE(d.at >= sim_.now(), "scripted death in the past");
    sim_.at(d.at, [this, d] { fire(d); });
  }
}

void FaultInjector::battery_exhausted(NodeId node) {
  for (const NodeDeath& d : plan_.deaths())
    if (d.node == node && d.cause == NodeDeath::Cause::kBattery) {
      fire(d);
      return;
    }
  // Unplanned exhaustion (agent-side budget without a plan entry).
  NodeDeath d;
  d.node = node;
  d.cause = NodeDeath::Cause::kBattery;
  fire(d);
}

void FaultInjector::fire(const NodeDeath& d) {
  if (is_dead(d.node)) return;
  dead_.push_back(d.node);
  if (on_death_) on_death_(d);
}

double FaultInjector::link_loss(NodeId from, NodeId to, Time now) const {
  double pass = 1.0;
  for (const LinkDegradation& w : plan_.degradations()) {
    if (now < w.begin || now >= w.end) continue;
    const bool match = (w.a == from && w.b == to) ||
                       (w.a == to && w.b == from);
    if (match) pass *= 1.0 - w.loss;
  }
  return 1.0 - pass;
}

bool FaultInjector::is_dead(NodeId node) const {
  return std::find(dead_.begin(), dead_.end(), node) != dead_.end();
}

}  // namespace mhp
