#include "reference_flow.hpp"

#include <algorithm>
#include <queue>

#include "util/assertx.hpp"

namespace mhp::reference {

using Cap = FlowNetwork::Cap;

int FlowNetwork::add_nodes(int count) {
  MHP_REQUIRE(count >= 0, "negative node count");
  const int first = num_nodes();
  out_.resize(out_.size() + static_cast<std::size_t>(count));
  return first;
}

int FlowNetwork::add_arc(int u, int v, Cap cap) {
  MHP_REQUIRE(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes(),
              "arc endpoint out of range");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  const int e = num_arcs();
  from_.push_back(u);
  to_.push_back(v);
  cap_.push_back(cap);
  cap_init_.push_back(cap);
  out_[u].push_back(e);
  // Residual twin.
  from_.push_back(v);
  to_.push_back(u);
  cap_.push_back(0);
  cap_init_.push_back(0);
  out_[v].push_back(e + 1);
  return e;
}

void FlowNetwork::push(int e, Cap amount) {
  MHP_REQUIRE(e >= 0 && e < num_arcs(), "arc out of range");
  MHP_REQUIRE(amount >= 0 && amount <= cap_[e], "push exceeds residual");
  cap_[e] -= amount;
  cap_[e ^ 1] += amount;
}

void FlowNetwork::set_capacity_and_reset(int e, Cap cap) {
  MHP_REQUIRE(e >= 0 && e < num_arcs() && (e % 2) == 0,
              "capacity only settable on forward arcs");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  cap_init_[e] = cap;
  reset_flow();
}

namespace {

void require_terminals(const FlowNetwork& net, int s, int t) {
  MHP_REQUIRE(s >= 0 && s < net.num_nodes() && t >= 0 && t < net.num_nodes(),
              "terminal out of range");
  MHP_REQUIRE(s != t, "source equals sink");
}

class Dinic {
 public:
  Dinic(FlowNetwork& net, int s, int t) : net_(net), s_(s), t_(t) {}

  Cap run() {
    Cap total = 0;
    while (bfs_levels()) {
      iter_.assign(static_cast<std::size_t>(net_.num_nodes()), 0);
      for (;;) {
        const Cap pushed = dfs(s_, FlowNetwork::kInfinite);
        if (pushed == 0) break;
        total += pushed;
      }
    }
    return total;
  }

 private:
  bool bfs_levels() {
    level_.assign(static_cast<std::size_t>(net_.num_nodes()), -1);
    std::queue<int> q;
    level_[s_] = 0;
    q.push(s_);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (int e : net_.arcs_out(v)) {
        const int w = net_.arc_to(e);
        if (level_[w] < 0 && net_.residual(e) > 0) {
          level_[w] = level_[v] + 1;
          q.push(w);
        }
      }
    }
    return level_[t_] >= 0;
  }

  Cap dfs(int v, Cap limit) {
    if (v == t_) return limit;
    const auto& arcs = net_.arcs_out(v);
    for (auto& i = iter_[static_cast<std::size_t>(v)]; i < arcs.size(); ++i) {
      const int e = arcs[i];
      const int w = net_.arc_to(e);
      if (net_.residual(e) <= 0 || level_[w] != level_[v] + 1) continue;
      const Cap pushed = dfs(w, std::min(limit, net_.residual(e)));
      if (pushed > 0) {
        net_.push(e, pushed);
        return pushed;
      }
    }
    return 0;
  }

  FlowNetwork& net_;
  int s_, t_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace

Cap max_flow(FlowNetwork& net, int s, int t) {
  require_terminals(net, s, t);
  net.reset_flow();
  return Dinic(net, s, t).run();
}

Cap edmonds_karp(FlowNetwork& net, int s, int t) {
  require_terminals(net, s, t);
  net.reset_flow();
  Cap total = 0;
  std::vector<int> pred_arc(static_cast<std::size_t>(net.num_nodes()));
  for (;;) {
    // BFS for a shortest augmenting path in the residual graph.
    std::fill(pred_arc.begin(), pred_arc.end(), -1);
    std::queue<int> q;
    q.push(s);
    pred_arc[s] = -2;
    while (!q.empty() && pred_arc[t] == -1) {
      const int v = q.front();
      q.pop();
      for (int e : net.arcs_out(v)) {
        const int w = net.arc_to(e);
        if (pred_arc[w] == -1 && net.residual(e) > 0) {
          pred_arc[w] = e;
          q.push(w);
        }
      }
    }
    if (pred_arc[t] == -1) return total;
    Cap bottleneck = FlowNetwork::kInfinite;
    for (int v = t; v != s; v = net.arc_from(pred_arc[v]))
      bottleneck = std::min(bottleneck, net.residual(pred_arc[v]));
    for (int v = t; v != s; v = net.arc_from(pred_arc[v]))
      net.push(pred_arc[v], bottleneck);
    total += bottleneck;
  }
}

}  // namespace mhp::reference
