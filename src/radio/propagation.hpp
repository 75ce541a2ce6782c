// Radio propagation models.
//
// TwoRayGround is the NS-2 default the paper's evaluation used; the
// log-distance + static log-normal shadowing model produces the "arbitrary,
// possibly non-convex covering areas" of §III-B (every node pair draws a
// fixed shadowing offset, so coverage is stable but not a disc).
#pragma once

#include <cstdint>
#include <memory>

#include "util/geometry.hpp"

namespace mhp {

class Propagation {
 public:
  virtual ~Propagation() = default;

  /// Received signal power (watts) at `to` for a transmission of
  /// `tx_power_w` watts from `from`.  Must be bitwise reciprocal,
  /// rx_power_w(p, a, b) == rx_power_w(p, b, a): Channel's all-pairs scan
  /// computes each pair of equal-power nodes once, and its rows and grid
  /// scan compute each direction on its own.
  virtual double rx_power_w(double tx_power_w, Vec2 from, Vec2 to) const = 0;

  /// A conservative reach: every pair with rx_power_w(tx_power_w, a, b) ≥
  /// min_rx_w has distance(a, b) ≤ this.  Channel builds its audible
  /// lists through a grid of this size; +∞ (the default, and the answer
  /// for a non-positive `min_rx_w`) means any pair may be audible.
  virtual double range_bound_m(double tx_power_w, double min_rx_w) const;
};

/// Friis free-space model: Pr = Pt·Gt·Gr·λ² / ((4π)²·d²·L).
class FreeSpace : public Propagation {
 public:
  /// Defaults follow NS-2: 914 MHz carrier, unity gains, no system loss.
  explicit FreeSpace(double freq_hz = 914e6, double gt = 1.0, double gr = 1.0,
                     double system_loss = 1.0);

  double rx_power_w(double tx_power_w, Vec2 from, Vec2 to) const override;
  double range_bound_m(double tx_power_w, double min_rx_w) const override;

  double wavelength_m() const { return lambda_; }

 private:
  double lambda_;
  double gt_, gr_, loss_;
};

/// Two-ray ground reflection: Friis inside the crossover distance
/// dc = 4π·ht·hr/λ, and Pr = Pt·Gt·Gr·ht²·hr²/d⁴ beyond it.
class TwoRayGround : public Propagation {
 public:
  explicit TwoRayGround(double freq_hz = 914e6, double antenna_height_m = 1.5,
                        double gt = 1.0, double gr = 1.0,
                        double system_loss = 1.0);

  double rx_power_w(double tx_power_w, Vec2 from, Vec2 to) const override;
  /// The Friis reach when it ends inside the crossover, else the
  /// fourth-power reach (a system loss above 1 can make the two-ray
  /// branch the longer one).
  double range_bound_m(double tx_power_w, double min_rx_w) const override;

  double crossover_distance_m() const { return crossover_; }

 private:
  FreeSpace friis_;
  double ht_, hr_;
  double gt_, gr_;
  double crossover_;
};

/// Log-distance path loss with *static* log-normal shadowing: each
/// unordered node-pair (keyed by quantised positions and the environment
/// seed) draws a fixed shadowing offset, making coverage areas arbitrary
/// but reproducible — obstacles and multipath frozen in place.
class LogDistanceShadowing : public Propagation {
 public:
  LogDistanceShadowing(double exponent = 3.0, double sigma_db = 6.0,
                       double reference_distance_m = 1.0,
                       double freq_hz = 914e6,
                       std::uint64_t environment_seed = 1);

  double rx_power_w(double tx_power_w, Vec2 from, Vec2 to) const override;

 private:
  double shadowing_db(Vec2 a, Vec2 b) const;

  double exponent_;
  double sigma_db_;
  double d0_;
  double pl_d0_linear_;  // free-space path loss factor at d0
  std::uint64_t seed_;
};

}  // namespace mhp
