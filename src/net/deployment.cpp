#include "net/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <string>

#include "net/point_grid.hpp"
#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

namespace {

/// Verdict-exact `distance(a, b) <= range` that skips std::hypot away
/// from the boundary: the squared distance carries ~4 ulp of relative
/// error and distance() ~1 ulp, so outside a ±1e-9 relative band around
/// range² the cheap comparison provably agrees; inside the band
/// (constructed exact-boundary layouts land here) the verdict defers to
/// distance() for bit-exact brute-force parity.
class Within {
 public:
  explicit Within(double range)
      : range_(range),
        r2_lo_(range * range * (1.0 - 1e-9)),
        r2_hi_(range * range * (1.0 + 1e-9)) {}
  bool operator()(Vec2 a, Vec2 b) const {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= r2_lo_) return true;
    if (d2 >= r2_hi_) return false;
    return distance(a, b) <= range_;
  }

 private:
  double range_, r2_lo_, r2_hi_;
};

/// The sensors of a deployment on a PointGrid with cell size >=
/// sensor_range.  Any pair within sensor_range differs by at most one
/// cell per axis, so neighbor candidates come from the 3×3 cell block
/// around each sensor — O(n) expected work for bounded-density
/// deployments instead of the O(n²) all-pairs scan.
class CellGrid {
 public:
  CellGrid(const Deployment& d, double cell)
      : grid_(std::span(d.positions).first(d.num_sensors()), cell) {
    // Positions copied beside the ids so the pair scans read contiguous
    // memory.
    pos_.reserve(grid_.ids().size());
    for (const NodeId s : grid_.ids()) pos_.push_back(d.sensor_pos(s));
  }

  /// Every sensor pair within `range`, each exactly once, unsorted.  The
  /// forward half-stencil (within-cell pairs, then each of the four
  /// "ahead" neighbor cells) visits every unordered cell pair once, so
  /// every candidate pair costs exactly one distance evaluation — half
  /// the work of a symmetric 3×3 gather per node.
  void collect_edges(double range,
                     std::vector<std::pair<NodeId, NodeId>>& out) const {
    out.clear();
    const std::vector<NodeId>& ids = grid_.ids();
    if (ids.empty()) return;
    const Within within(range);
    const std::size_t nx = grid_.nx();
    const std::size_t ny = grid_.ny();
    for (std::size_t gy = 0; gy < ny; ++gy)
      for (std::size_t gx = 0; gx < nx; ++gx) {
        const std::size_t c = gy * nx + gx;
        const std::size_t cb = grid_.first(c);
        const std::size_t ce = grid_.first(c + 1);
        if (cb == ce) continue;
        for (std::size_t i = cb; i != ce; ++i) {
          const Vec2 pa = pos_[i];
          // Runs ascend, so within-cell pairs are already (low, high).
          for (std::size_t j = i + 1; j != ce; ++j)
            if (within(pa, pos_[j])) out.emplace_back(ids[i], ids[j]);
        }
        // Forward neighbors: E, SW, S, SE.  Cross-cell ids are unordered,
        // so emit (min, max).
        static constexpr std::ptrdiff_t kFwd[4][2] = {
            {1, 0}, {-1, 1}, {0, 1}, {1, 1}};
        for (const auto& [dx, dy] : kFwd) {
          const std::ptrdiff_t fx = static_cast<std::ptrdiff_t>(gx) + dx;
          const std::ptrdiff_t fy = static_cast<std::ptrdiff_t>(gy) + dy;
          if (fx < 0 || fy < 0 || fx >= static_cast<std::ptrdiff_t>(nx) ||
              fy >= static_cast<std::ptrdiff_t>(ny))
            continue;
          const std::size_t f =
              static_cast<std::size_t>(fy) * nx + static_cast<std::size_t>(fx);
          const std::size_t fb = grid_.first(f);
          const std::size_t fe = grid_.first(f + 1);
          for (std::size_t i = cb; i != ce; ++i) {
            const Vec2 pa = pos_[i];
            const NodeId a = ids[i];
            for (std::size_t j = fb; j != fe; ++j)
              if (within(pa, pos_[j])) {
                const NodeId b = ids[j];
                out.emplace_back(std::min(a, b), std::max(a, b));
              }
          }
        }
      }
  }

  /// Whether some sensor has no other sensor within `range` and is
  /// farther than `range` from `head`: it has no link at all in the disc
  /// topology of that range, so the deployment cannot be connected.
  bool has_stranded_sensor(double range, Vec2 head) const {
    const Within within(range);
    for (std::size_t i = 0; i < pos_.size(); ++i) {
      const Vec2 p = pos_[i];
      if (distance(p, head) > range &&
          !grid_.any_near(p, range, [&](std::size_t j) {
            return j != i && within(p, pos_[j]);
          }))
        return true;
    }
    return false;
  }

 private:
  PointGrid grid_;
  std::vector<Vec2> pos_;  // pos_[i] is the position of grid_.ids()[i]
};

/// disc_topology over a grid already built on `d` with cell sensor_range.
ClusterTopology grid_topology(const Deployment& d, const CellGrid& grid,
                              double sensor_range, double uplink_range) {
  const std::size_t n = d.num_sensors();
  Graph g(n);
  std::vector<std::pair<NodeId, NodeId>> edges;
  grid.collect_edges(sensor_range, edges);
  // The brute-force scan inserts edges in lexicographic (a, b) order and
  // downstream tie-breaks iterate neighbor lists, so restore that order to
  // make the grid's Graph byte-identical, not just an equal edge set.
  // Counting sort by source + tiny per-source sorts beats one comparison
  // sort over the whole edge list.
  std::vector<std::size_t> offset(n + 1, 0);
  for (const auto& [a, b] : edges) ++offset[a + 1];
  for (std::size_t i = 1; i <= n; ++i) offset[i] += offset[i - 1];
  std::vector<std::pair<NodeId, NodeId>> sorted(edges.size());
  {
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (const auto& e : edges) sorted[cursor[e.first]++] = e;
  }
  for (std::size_t a = 0; a < n; ++a)
    std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(offset[a]),
              sorted.begin() + static_cast<std::ptrdiff_t>(offset[a + 1]));
  for (const auto& [a, b] : sorted) g.add_edge(a, b);
  std::vector<bool> head_hears(n);
  for (NodeId s = 0; s < n; ++s)
    head_hears[s] = distance(d.sensor_pos(s), d.head_pos()) <= uplink_range;
  return ClusterTopology(std::move(g), std::move(head_hears));
}

}  // namespace

Deployment deploy_uniform_square(std::size_t n, double side, Rng& rng) {
  MHP_REQUIRE(side > 0.0, "square side must be positive");
  Deployment d;
  d.positions.reserve(n + 1);
  const double half = side / 2.0;
  for (std::size_t i = 0; i < n; ++i)
    d.positions.push_back({rng.uniform(-half, half), rng.uniform(-half, half)});
  d.positions.push_back({0.0, 0.0});  // head at the centre
  return d;
}

Deployment deploy_grid(std::size_t n, double side) {
  MHP_REQUIRE(side > 0.0, "square side must be positive");
  Deployment d;
  d.positions.reserve(n + 1);
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    const double x =
        -side / 2.0 + side * (static_cast<double>(c) + 0.5) /
                          static_cast<double>(cols);
    const double y =
        -side / 2.0 + side * (static_cast<double>(r) + 0.5) /
                          static_cast<double>(rows);
    d.positions.push_back({x, y});
  }
  d.positions.push_back({0.0, 0.0});
  return d;
}

Deployment deploy_rings(std::size_t rings, std::size_t per_ring,
                        double spacing) {
  MHP_REQUIRE(spacing > 0.0, "ring spacing must be positive");
  Deployment d;
  d.positions.reserve(rings * per_ring + 1);
  for (std::size_t r = 1; r <= rings; ++r) {
    const double radius = spacing * static_cast<double>(r);
    for (std::size_t k = 0; k < per_ring; ++k) {
      const double theta = 2.0 * std::numbers::pi *
                           (static_cast<double>(k) +
                            0.5 * static_cast<double>(r % 2)) /
                           static_cast<double>(per_ring);
      d.positions.push_back({radius * std::cos(theta),
                             radius * std::sin(theta)});
    }
  }
  d.positions.push_back({0.0, 0.0});
  return d;
}

ClusterTopology disc_topology(const Deployment& d, double sensor_range,
                              double uplink_range) {
  MHP_REQUIRE(sensor_range > 0.0, "sensor range must be positive");
  if (uplink_range <= 0.0) uplink_range = sensor_range;
  return grid_topology(d, CellGrid(d, sensor_range), sensor_range,
                       uplink_range);
}

ClusterTopology disc_topology_brute_force(const Deployment& d,
                                          double sensor_range,
                                          double uplink_range) {
  MHP_REQUIRE(sensor_range > 0.0, "sensor range must be positive");
  if (uplink_range <= 0.0) uplink_range = sensor_range;
  const std::size_t n = d.num_sensors();
  Graph g(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b)
      if (distance(d.sensor_pos(a), d.sensor_pos(b)) <= sensor_range)
        g.add_edge(a, b);
  std::vector<bool> head_hears(n);
  for (NodeId s = 0; s < n; ++s)
    head_hears[s] = distance(d.sensor_pos(s), d.head_pos()) <= uplink_range;
  return ClusterTopology(std::move(g), std::move(head_hears));
}

ClusterTopology topology_from_predicate(
    std::size_t n, const std::function<bool(NodeId, NodeId)>& hears) {
  const auto head = static_cast<NodeId>(n);
  Graph g(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b)
      if (hears(a, b) && hears(b, a)) g.add_edge(a, b);
  std::vector<bool> head_hears(n);
  for (NodeId s = 0; s < n; ++s) head_hears[s] = hears(s, head);
  return ClusterTopology(std::move(g), std::move(head_hears));
}

Deployment deploy_connected_uniform_square(std::size_t n, double side,
                                           double sensor_range, Rng& rng,
                                           int max_tries) {
  MHP_REQUIRE(sensor_range > 0.0, "sensor range must be positive");
  int draws = 0;
  int stranded_draws = 0;
  std::optional<Deployment> connected;
  while (!connected && draws < max_tries) {
    ++draws;
    Deployment d = deploy_uniform_square(n, side, rng);
    // A stranded sensor (no link at all) is found in O(n) and rejects the
    // draw before the topology is built; the full check rejects it too,
    // so the draws and the accepted deployment are unchanged.
    const CellGrid grid(d, sensor_range);
    if (grid.has_stranded_sensor(sensor_range, d.head_pos()))
      ++stranded_draws;
    else if (grid_topology(d, grid, sensor_range, sensor_range)
                 .fully_connected())
      connected = std::move(d);
  }
  MHP_SPAN_COUNTER("draws", draws);
  MHP_SPAN_COUNTER("stranded_draws", stranded_draws);
  if (connected) return *std::move(connected);
  throw ContractViolation(
      "deploy_connected_uniform_square: no connected deployment in " +
      std::to_string(draws) + " draws (max_tries " +
      std::to_string(max_tries) + "), " + std::to_string(stranded_draws) +
      " of them with a stranded sensor; sensor_range too small for this "
      "density");
}

}  // namespace mhp
