// Arena-friendly flow network: structure-of-arrays arc storage laid out
// in CSR order, built once per solve and reused across δ-probes.
//
// add_arc() stages a forward arc and its residual twin; build_csr() then
// lays the arcs out so that an arc's id IS its slot in the adjacency
// index: node v's out-arcs are the contiguous id range arcs_out(v), in
// insertion order.  A max-flow phase that scans a node's arcs therefore
// reads arc_to() and residual() sequentially instead of chasing an index
// array.  Because ids follow slots, the twin of an arc comes from a
// table (twin()) and forward arcs carry a flag (is_forward()).  Each
// slot also holds its pair's capacity, so the twin's residual is
// readable from the arc's own slot (twin_residual()).  Callers map
// add_arc()'s insertion indices to ids once, through the table
// build_csr() returns.  Per-node insertion order is kept, so
// BFS/DFS visit order — and therefore the solved flow — is that of an
// adjacency-list network with the arcs added in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

namespace mhp::route {

class FlowGraph {
 public:
  using Cap = std::int64_t;
  static constexpr Cap kInfinite = INT64_MAX / 4;

  /// A node's out-arcs (forward and residual, in insertion order): the
  /// contiguous arc id range [first, last).
  struct ArcRange {
    int first = 0;
    int last = 0;

    std::size_t size() const { return static_cast<std::size_t>(last - first); }
    int operator[](std::size_t i) const {
      return first + static_cast<int>(i);
    }
    auto begin() const { return std::views::iota(first, last).begin(); }
    auto end() const { return std::views::iota(first, last).end(); }
  };

  /// Drop all arcs and size the node set; capacity stays allocated.
  void reset(int num_nodes);

  /// Stage a directed arc u→v with capacity `cap` plus its residual twin
  /// v→u; returns the arc's insertion index (0, 1, 2, ...).  Only valid
  /// before build_csr(), which assigns the arc ids.
  int add_arc(int u, int v, Cap cap);

  /// Freeze the arc set and lay it out in CSR order.  Returns the id of
  /// every staged arc: the forward arc add_arc() returned as index k has
  /// id `ids[k]`.  The span stays valid until the next reset().  Every
  /// per-arc accessor below needs a frozen graph.
  std::span<const std::int32_t> build_csr();

  int num_nodes() const { return num_nodes_; }
  int num_arcs() const { return static_cast<int>(to_.size()); }

  int arc_to(int e) const { return to_[static_cast<std::size_t>(e)]; }
  int arc_from(int e) const { return arc_to(twin(e)); }
  /// The residual partner of arc e (twin(twin(e)) == e).
  int twin(int e) const { return twin_[static_cast<std::size_t>(e)]; }
  /// True for arcs add_arc() created, false for their residual twins.
  bool is_forward(int e) const {
    return forward_[static_cast<std::size_t>(e)] != 0;
  }
  Cap capacity(int e) const {
    return is_forward(e) ? pair_cap_[static_cast<std::size_t>(e)] : 0;
  }
  Cap residual(int e) const { return cap_[static_cast<std::size_t>(e)]; }
  /// residual(twin(e)), read from e's own slot: an arc and its twin
  /// always hold their pair's capacity between them.
  Cap twin_residual(int e) const {
    return pair_cap_[static_cast<std::size_t>(e)] -
           cap_[static_cast<std::size_t>(e)];
  }
  /// Net flow pushed over arc e (0..capacity for forward arcs).
  Cap flow(int e) const { return capacity(e) - residual(e); }

  /// Arcs leaving node v.
  ArcRange arcs_out(int v) const {
    return {csr_begin_[static_cast<std::size_t>(v)],
            csr_begin_[static_cast<std::size_t>(v) + 1]};
  }

  /// Cache hint: a scan of node v's out-arcs follows shortly.
  void prefetch_arcs(int v) const {
    const auto b =
        static_cast<std::size_t>(csr_begin_[static_cast<std::size_t>(v)]);
    __builtin_prefetch(to_.data() + b);
    __builtin_prefetch(cap_.data() + b);
    __builtin_prefetch(pair_cap_.data() + b);
  }

  /// Consume `amount` of residual capacity on arc e, crediting the twin.
  void push(int e, Cap amount);

  /// Change a forward arc's capacity.  Residuals are stale until the next
  /// clear_flow(), so callers must follow with it.
  void set_capacity(int e, Cap cap);

  /// Zero all flow, restoring residuals to the current capacities.
  void clear_flow();

 private:
  int num_nodes_ = 0;
  // add_arc's staging area, one entry per forward arc.
  std::vector<std::int32_t> staged_from_;
  std::vector<std::int32_t> staged_to_;
  std::vector<Cap> staged_cap_;
  // The layout, one entry per arc id.
  std::vector<std::int32_t> to_;
  std::vector<std::int32_t> twin_;
  std::vector<std::uint8_t> forward_;
  std::vector<std::int32_t> csr_begin_;
  std::vector<std::int32_t> ids_;  // staged index → forward arc id
  bool csr_built_ = false;
  std::vector<Cap> cap_;       // residual capacity
  std::vector<Cap> pair_cap_;  // capacity of the arc's forward arc
};

}  // namespace mhp::route
