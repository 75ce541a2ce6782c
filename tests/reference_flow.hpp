// Reference max-flow stack for the tests: an xor-paired adjacency-list
// network with textbook forward-level Dinic and Edmonds–Karp.  It shares
// no code with route::FlowGraph or the RoutingEngine's sink-level Dinic,
// so the engine's differential test can use it as an independent oracle:
// adding the §III-A arcs in the engine's order gives the same per-node
// arc order, and forward-level Dinic pushes the same paths (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <vector>

namespace mhp::reference {

class FlowNetwork {
 public:
  using Cap = std::int64_t;
  static constexpr Cap kInfinite = INT64_MAX / 4;

  int add_nodes(int count);
  int num_nodes() const { return static_cast<int>(out_.size()); }

  /// Add a directed arc u→v with capacity `cap`; returns the arc id used
  /// to query flow later.  The residual twin is arc id ^ 1.
  int add_arc(int u, int v, Cap cap);
  int num_arcs() const { return static_cast<int>(to_.size()); }

  int arc_from(int e) const { return from_[e]; }
  int arc_to(int e) const { return to_[e]; }
  Cap capacity(int e) const { return cap_init_[e]; }
  Cap residual(int e) const { return cap_[e]; }
  /// Net flow pushed over arc e (0..capacity for forward arcs).
  Cap flow(int e) const { return cap_init_[e] - cap_[e]; }

  /// Arc ids (forward and residual) leaving node v.
  const std::vector<int>& arcs_out(int v) const { return out_[v]; }

  /// Consume `amount` of residual capacity on arc e, crediting the twin.
  void push(int e, Cap amount);

  /// Zero all flow, restoring initial capacities.
  void reset_flow() { cap_ = cap_init_; }

  /// Change a forward arc's capacity and clear all flow.
  void set_capacity_and_reset(int e, Cap cap);

 private:
  std::vector<int> from_;
  std::vector<int> to_;
  std::vector<Cap> cap_;       // residual capacity
  std::vector<Cap> cap_init_;  // original capacity
  std::vector<std::vector<int>> out_;
};

/// Maximum s→t flow by forward-level Dinic; the flow is left on `net`.
/// Existing flow is cleared first.
FlowNetwork::Cap max_flow(FlowNetwork& net, int s, int t);

/// Maximum s→t flow by Edmonds–Karp (BFS augmenting paths), the
/// cross-check for max_flow.  Existing flow is cleared first.
FlowNetwork::Cap edmonds_karp(FlowNetwork& net, int s, int t);

}  // namespace mhp::reference
