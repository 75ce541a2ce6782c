// A uniform grid over a point set, for neighbour searches in O(n·degree)
// instead of O(n²): the disc topology and the connected-deployment test
// (net/deployment.cpp) and the SINR channel's audible lists
// (radio/channel.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "net/ids.hpp"
#include "util/geometry.hpp"

namespace mhp {

/// Point ids bucketed by cells over the points' bounding box, built by a
/// counting sort into one flat id array with per-cell offsets, so a
/// gather is direct indexing over contiguous runs, no hashing.  The cell
/// count is capped near 4n by enlarging cells: cells larger than asked
/// only widen candidate sets, never miss a neighbour, so sparse or
/// spread-out layouts cost memory O(n) instead of O(area).
class PointGrid {
 public:
  /// Cells at least `cell` wide over points[0..n).
  PointGrid(std::span<const Vec2> points, double cell) {
    const std::size_t n = points.size();
    double max_x = 0.0, max_y = 0.0;
    if (n > 0) {
      min_x_ = max_x = points[0].x;
      min_y_ = max_y = points[0].y;
    }
    for (const Vec2 p : points) {
      min_x_ = std::min(min_x_, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    const double per_axis =
        std::ceil(std::sqrt(static_cast<double>(4 * n))) + 1.0;
    cell_ = std::max({cell, (max_x - min_x_) / per_axis,
                      (max_y - min_y_) / per_axis});
    if (!(cell_ > 0.0)) cell_ = 1.0;  // every point at one place
    nx_ = static_cast<std::size_t>(std::floor((max_x - min_x_) / cell_)) + 1;
    ny_ = static_cast<std::size_t>(std::floor((max_y - min_y_) / cell_)) + 1;
    starts_.assign(nx_ * ny_ + 1, 0);
    for (const Vec2 p : points) ++starts_[cell_of(p) + 1];
    for (std::size_t c = 1; c < starts_.size(); ++c)
      starts_[c] += starts_[c - 1];
    ids_.resize(n);
    std::vector<std::size_t> cursor(starts_.begin(), starts_.end() - 1);
    // Filling in id order keeps each cell's run ascending.
    for (std::size_t i = 0; i < n; ++i)
      ids_[cursor[cell_of(points[i])]++] = static_cast<NodeId>(i);
  }

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

  /// Slots [first(c), first(c + 1)) of ids() hold the points of cell
  /// c = gy·nx() + gx, in ascending id order.
  std::size_t first(std::size_t c) const { return starts_[c]; }
  const std::vector<NodeId>& ids() const { return ids_; }

  /// Calls f(id) for every point in the cells that meet the square of
  /// half-side `reach` around `p`.
  template <typename F>
  void for_each_near(Vec2 p, double reach, F&& f) const {
    any_near(p, reach, [&](std::size_t slot) {
      f(ids_[slot]);
      return false;
    });
  }

  /// Whether pred(slot) holds for some slot of ids() in the cells that
  /// meet the square of half-side `reach` around `p`; stops at the first.
  template <typename Pred>
  bool any_near(Vec2 p, double reach, Pred&& pred) const {
    const std::size_t x1 = col_of(p.x + reach);
    const std::size_t y1 = row_of(p.y + reach);
    for (std::size_t gy = row_of(p.y - reach); gy <= y1; ++gy)
      for (std::size_t gx = col_of(p.x - reach); gx <= x1; ++gx) {
        const std::size_t c = gy * nx_ + gx;
        for (std::size_t i = starts_[c]; i != starts_[c + 1]; ++i)
          if (pred(i)) return true;
      }
    return false;
  }

 private:
  // Cell coordinates clamped to the grid.  floor is monotone, so a point
  // within `reach` of p on an axis lies in the range any_near scans.
  static std::size_t clamp_cell(double f, std::size_t count) {
    if (!(f > 0.0)) return 0;
    if (f >= static_cast<double>(count - 1)) return count - 1;
    return static_cast<std::size_t>(f);
  }
  std::size_t col_of(double x) const {
    return clamp_cell(std::floor((x - min_x_) / cell_), nx_);
  }
  std::size_t row_of(double y) const {
    return clamp_cell(std::floor((y - min_y_) / cell_), ny_);
  }
  std::size_t cell_of(Vec2 p) const { return row_of(p.y) * nx_ + col_of(p.x); }

  double cell_ = 1.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::vector<std::size_t> starts_;
  std::vector<NodeId> ids_;
};

}  // namespace mhp
