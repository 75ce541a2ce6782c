#include "route/flow_graph.hpp"

#include "util/assertx.hpp"

namespace mhp::route {

void FlowGraph::reset(int num_nodes) {
  MHP_REQUIRE(num_nodes >= 0, "negative node count");
  num_nodes_ = num_nodes;
  staged_from_.clear();
  staged_to_.clear();
  staged_cap_.clear();
  to_.clear();
  twin_.clear();
  forward_.clear();
  csr_built_ = false;
  cap_.clear();
  pair_cap_.clear();
}

int FlowGraph::add_arc(int u, int v, Cap cap) {
  MHP_REQUIRE(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_,
              "arc endpoint out of range");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  MHP_REQUIRE(!csr_built_, "arc added after build_csr");
  staged_from_.push_back(u);
  staged_to_.push_back(v);
  staged_cap_.push_back(cap);
  return static_cast<int>(staged_to_.size()) - 1;
}

std::span<const std::int32_t> FlowGraph::build_csr() {
  MHP_REQUIRE(!csr_built_, "build_csr called twice");
  const std::size_t pairs = staged_to_.size();
  const std::size_t m = 2 * pairs;
  const auto nodes = static_cast<std::size_t>(num_nodes_);
  // Counting sort by tail node.  Walking the staged arcs in order and
  // placing each forward arc before its twin reproduces, per node, the
  // arc order of an xor-paired adjacency-list network (arc 2k forward,
  // 2k+1 its twin), which the routing engine's results are pinned to.
  csr_begin_.assign(nodes + 1, 0);
  for (std::size_t k = 0; k < pairs; ++k) {
    ++csr_begin_[static_cast<std::size_t>(staged_from_[k]) + 1];
    ++csr_begin_[static_cast<std::size_t>(staged_to_[k]) + 1];
  }
  for (std::size_t v = 0; v < nodes; ++v) csr_begin_[v + 1] += csr_begin_[v];
  std::vector<std::int32_t> cursor(csr_begin_.begin(), csr_begin_.end());
  to_.resize(m);
  twin_.resize(m);
  forward_.resize(m);
  ids_.resize(pairs);
  cap_.resize(m);
  pair_cap_.resize(m);
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::int32_t u = staged_from_[k];
    const std::int32_t v = staged_to_[k];
    const Cap c = staged_cap_[k];
    const std::int32_t f = cursor[static_cast<std::size_t>(u)]++;
    const std::int32_t r = cursor[static_cast<std::size_t>(v)]++;
    const auto fi = static_cast<std::size_t>(f);
    const auto ri = static_cast<std::size_t>(r);
    to_[fi] = v;
    to_[ri] = u;
    twin_[fi] = r;
    twin_[ri] = f;
    forward_[fi] = 1;
    forward_[ri] = 0;
    cap_[fi] = c;
    cap_[ri] = 0;
    pair_cap_[fi] = c;
    pair_cap_[ri] = c;
    ids_[k] = f;
  }
  csr_built_ = true;
  return ids_;
}

void FlowGraph::push(int e, Cap amount) {
  MHP_REQUIRE(e >= 0 && e < num_arcs(), "arc out of range");
  MHP_REQUIRE(amount >= 0 && amount <= cap_[static_cast<std::size_t>(e)],
              "push exceeds residual");
  cap_[static_cast<std::size_t>(e)] -= amount;
  cap_[static_cast<std::size_t>(twin(e))] += amount;
}

void FlowGraph::set_capacity(int e, Cap cap) {
  MHP_REQUIRE(e >= 0 && e < num_arcs() && is_forward(e),
              "capacity only settable on forward arcs");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  pair_cap_[static_cast<std::size_t>(e)] = cap;
  pair_cap_[static_cast<std::size_t>(twin(e))] = cap;
}

void FlowGraph::clear_flow() {
  const std::size_t m = cap_.size();
  for (std::size_t e = 0; e < m; ++e)
    cap_[e] = forward_[e] != 0 ? pair_cap_[e] : 0;
}

}  // namespace mhp::route
