#include "fault/fault_plan.hpp"

#include "util/assertx.hpp"

namespace mhp {

FaultPlan& FaultPlan::kill_at(NodeId node, Time at) {
  MHP_REQUIRE(node != kNoNode, "death needs a node");
  NodeDeath d;
  d.node = node;
  d.cause = NodeDeath::Cause::kScripted;
  d.at = at;
  deaths_.push_back(d);
  return *this;
}

FaultPlan& FaultPlan::kill_on_battery(NodeId node, double battery_j) {
  MHP_REQUIRE(node != kNoNode, "death needs a node");
  MHP_REQUIRE(battery_j > 0.0, "battery budget must be positive");
  NodeDeath d;
  d.node = node;
  d.cause = NodeDeath::Cause::kBattery;
  d.battery_j = battery_j;
  deaths_.push_back(d);
  return *this;
}

FaultPlan& FaultPlan::degrade_link(NodeId a, NodeId b, Time begin, Time end,
                                   double loss) {
  MHP_REQUIRE(a != kNoNode && b != kNoNode && a != b,
              "degradation needs two distinct nodes");
  MHP_REQUIRE(end > begin, "degradation window must be non-empty");
  MHP_REQUIRE(loss > 0.0 && loss <= 1.0, "loss must be in (0,1]");
  LinkDegradation w;
  w.a = a;
  w.b = b;
  w.begin = begin;
  w.end = end;
  w.loss = loss;
  degradations_.push_back(w);
  return *this;
}

}  // namespace mhp
