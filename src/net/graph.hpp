// Undirected graph utilities: adjacency lists, BFS distances, connectivity.
// Used for cluster connectivity patterns and the NP-hardness reductions.
#pragma once

#include <cstddef>
#include <vector>

#include "net/ids.hpp"

namespace mhp {

class Graph {
 public:
  explicit Graph(std::size_t n = 0) : adj_(n) {}

  std::size_t size() const { return adj_.size(); }

  /// Add an undirected edge; duplicate edges are ignored.
  void add_edge(NodeId a, NodeId b);

  bool has_edge(NodeId a, NodeId b) const;

  const std::vector<NodeId>& neighbors(NodeId v) const;

  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  std::size_t edge_count() const;

  /// BFS hop distances from `src`; unreachable nodes get kUnreachable.
  static constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);
  std::vector<std::size_t> bfs_hops(NodeId src) const;

  /// True if every node is reachable from node 0 (or the graph is empty).
  bool connected() const;

 private:
  std::vector<std::vector<NodeId>> adj_;
};

}  // namespace mhp
