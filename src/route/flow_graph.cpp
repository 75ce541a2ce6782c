#include "route/flow_graph.hpp"

#include "util/assertx.hpp"

namespace mhp::route {

FlowGraph::Structure& FlowGraph::mutable_structure() {
  // A structure referenced by clones is frozen; building a new problem on
  // this graph must not mutate it under them.
  if (s_.use_count() > 1) s_ = std::make_shared<Structure>();
  return *s_;
}

void FlowGraph::reset(int num_nodes) {
  MHP_REQUIRE(num_nodes >= 0, "negative node count");
  Structure& s = mutable_structure();
  s.num_nodes = num_nodes;
  s.staged_from.clear();
  s.staged_to.clear();
  s.staged_cap.clear();
  s.to.clear();
  s.twin.clear();
  s.forward.clear();
  s.csr_built = false;
  cap_.clear();
  pair_cap_.clear();
}

int FlowGraph::add_arc(int u, int v, Cap cap) {
  Structure& s = *s_;
  MHP_REQUIRE(u >= 0 && u < s.num_nodes && v >= 0 && v < s.num_nodes,
              "arc endpoint out of range");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  MHP_REQUIRE(!s.csr_built, "arc added after build_csr");
  s.staged_from.push_back(u);
  s.staged_to.push_back(v);
  s.staged_cap.push_back(cap);
  return static_cast<int>(s.staged_to.size()) - 1;
}

std::span<const std::int32_t> FlowGraph::build_csr() {
  Structure& s = *s_;
  MHP_REQUIRE(!s.csr_built, "build_csr called twice");
  const std::size_t pairs = s.staged_to.size();
  const std::size_t m = 2 * pairs;
  const auto nodes = static_cast<std::size_t>(s.num_nodes);
  // Counting sort by tail node.  Walking the staged arcs in order and
  // placing each forward arc before its twin reproduces, per node, the
  // arc order of src/flow's FlowNetwork (arc 2k forward, 2k+1 its twin),
  // which the routing engine's results are pinned to.
  s.csr_begin.assign(nodes + 1, 0);
  for (std::size_t k = 0; k < pairs; ++k) {
    ++s.csr_begin[static_cast<std::size_t>(s.staged_from[k]) + 1];
    ++s.csr_begin[static_cast<std::size_t>(s.staged_to[k]) + 1];
  }
  for (std::size_t v = 0; v < nodes; ++v) s.csr_begin[v + 1] += s.csr_begin[v];
  std::vector<std::int32_t> cursor(s.csr_begin.begin(), s.csr_begin.end());
  s.to.resize(m);
  s.twin.resize(m);
  s.forward.resize(m);
  s.ids.resize(pairs);
  cap_.resize(m);
  pair_cap_.resize(m);
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::int32_t u = s.staged_from[k];
    const std::int32_t v = s.staged_to[k];
    const Cap c = s.staged_cap[k];
    const std::int32_t f = cursor[static_cast<std::size_t>(u)]++;
    const std::int32_t r = cursor[static_cast<std::size_t>(v)]++;
    const auto fi = static_cast<std::size_t>(f);
    const auto ri = static_cast<std::size_t>(r);
    s.to[fi] = v;
    s.to[ri] = u;
    s.twin[fi] = r;
    s.twin[ri] = f;
    s.forward[fi] = 1;
    s.forward[ri] = 0;
    cap_[fi] = c;
    cap_[ri] = 0;
    pair_cap_[fi] = c;
    pair_cap_[ri] = c;
    s.ids[k] = f;
  }
  s.csr_built = true;
  return s.ids;
}

void FlowGraph::adopt(const FlowGraph& base) {
  MHP_REQUIRE(base.s_->csr_built, "adopt of an unfrozen graph");
  s_ = base.s_;
  cap_ = base.cap_;
  pair_cap_ = base.pair_cap_;
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
    cap_[e] = s_->forward[e] != 0 ? pair_cap_[e] : 0;
}

void FlowGraph::install_flow(std::span<const Cap> fwd) {
  const std::size_t m = cap_.size();
  MHP_REQUIRE(fwd.size() * 2 == m, "flow snapshot size mismatch");
  std::size_t k = 0;
  for (std::size_t e = 0; e < m; ++e) {
    if (s_->forward[e] == 0) continue;
    const Cap f = fwd[k++];
    MHP_REQUIRE(f >= 0 && f <= pair_cap_[e], "installed flow exceeds capacity");
    cap_[e] = pair_cap_[e] - f;
    cap_[static_cast<std::size_t>(s_->twin[e])] = f;
  }
}

void FlowGraph::save_flow(std::vector<Cap>& fwd) const {
  const std::size_t m = cap_.size();
  fwd.resize(m / 2);
  std::size_t k = 0;
  for (std::size_t e = 0; e < m; ++e)
    if (s_->forward[e] != 0) fwd[k++] = pair_cap_[e] - cap_[e];
}

}  // namespace mhp::route
