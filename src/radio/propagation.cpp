#include "radio/propagation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {

namespace {
constexpr double kSpeedOfLight = 299'792'458.0;
// Widens every closed-form reach by far more than the few ulps of rounding
// in rx_power_w and in the bound itself, so the bound stays conservative.
constexpr double kReachSlack = 1.0 + 1e-6;
}  // namespace

double Propagation::range_bound_m(double, double) const {
  return std::numeric_limits<double>::infinity();
}

FreeSpace::FreeSpace(double freq_hz, double gt, double gr, double system_loss)
    : lambda_(kSpeedOfLight / freq_hz), gt_(gt), gr_(gr), loss_(system_loss) {
  MHP_REQUIRE(freq_hz > 0.0 && system_loss >= 1.0, "bad free-space params");
}

double FreeSpace::rx_power_w(double tx_power_w, Vec2 from, Vec2 to) const {
  const double d = distance(from, to);
  if (d <= 0.0) return tx_power_w;
  const double denom = 16.0 * std::numbers::pi * std::numbers::pi * d * d *
                       loss_;
  return tx_power_w * gt_ * gr_ * lambda_ * lambda_ / denom;
}

double FreeSpace::range_bound_m(double tx_power_w, double min_rx_w) const {
  if (!(min_rx_w > 0.0)) return Propagation::range_bound_m(tx_power_w, min_rx_w);
  // Pr(d) ≥ min  ⇔  d² ≤ Pt·Gt·Gr·λ² / (16π²·L·min); d = 0 returns Pt.
  const double d2 = tx_power_w * gt_ * gr_ * lambda_ * lambda_ /
                    (16.0 * std::numbers::pi * std::numbers::pi * loss_ *
                     min_rx_w);
  return kReachSlack * std::sqrt(std::max(d2, 0.0));
}

TwoRayGround::TwoRayGround(double freq_hz, double antenna_height_m, double gt,
                           double gr, double system_loss)
    : friis_(freq_hz, gt, gr, system_loss),
      ht_(antenna_height_m),
      hr_(antenna_height_m),
      gt_(gt),
      gr_(gr) {
  MHP_REQUIRE(antenna_height_m > 0.0, "antenna height must be positive");
  crossover_ = 4.0 * std::numbers::pi * ht_ * hr_ / friis_.wavelength_m();
}

double TwoRayGround::rx_power_w(double tx_power_w, Vec2 from, Vec2 to) const {
  const double d = distance(from, to);
  if (d <= crossover_) return friis_.rx_power_w(tx_power_w, from, to);
  return tx_power_w * gt_ * gr_ * ht_ * ht_ * hr_ * hr_ / (d * d * d * d);
}

double TwoRayGround::range_bound_m(double tx_power_w, double min_rx_w) const {
  if (!(min_rx_w > 0.0)) return Propagation::range_bound_m(tx_power_w, min_rx_w);
  // Inside the crossover only Friis applies; beyond it Pr ≥ min needs
  // d⁴ ≤ Pt·Gt·Gr·ht²·hr² / min, which is empty when that reach is short
  // of the crossover.
  const double near = std::min(friis_.range_bound_m(tx_power_w, min_rx_w),
                               crossover_);
  const double d4 =
      tx_power_w * gt_ * gr_ * ht_ * ht_ * hr_ * hr_ / min_rx_w;
  const double far = kReachSlack * std::sqrt(std::sqrt(std::max(d4, 0.0)));
  return far > crossover_ ? std::max(near, far) : near;
}

LogDistanceShadowing::LogDistanceShadowing(double exponent, double sigma_db,
                                           double reference_distance_m,
                                           double freq_hz,
                                           std::uint64_t environment_seed)
    : exponent_(exponent),
      sigma_db_(sigma_db),
      d0_(reference_distance_m),
      seed_(environment_seed) {
  MHP_REQUIRE(exponent > 0.0 && reference_distance_m > 0.0,
              "bad log-distance params");
  const double lambda = kSpeedOfLight / freq_hz;
  // Free-space *gain* (Pr/Pt) at the reference distance.
  pl_d0_linear_ = lambda * lambda /
                  (16.0 * std::numbers::pi * std::numbers::pi * d0_ * d0_);
}

double LogDistanceShadowing::shadowing_db(Vec2 a, Vec2 b) const {
  // Symmetric: order the pair by coordinates before hashing.
  if (b.x < a.x || (b.x == a.x && b.y < a.y)) std::swap(a, b);
  auto q = [](double v) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::llround(v * 1000.0)));
  };
  SplitMix64 sm(seed_ ^ (q(a.x) * 0x9e3779b97f4a7c15ULL) ^
                (q(a.y) * 0xc2b2ae3d27d4eb4fULL) ^
                (q(b.x) * 0x165667b19e3779f9ULL) ^
                (q(b.y) * 0xd6e8feb86659fd93ULL));
  Rng rng(sm.next());
  return rng.normal(0.0, sigma_db_);
}

double LogDistanceShadowing::rx_power_w(double tx_power_w, Vec2 from,
                                        Vec2 to) const {
  const double d = distance(from, to);
  if (d <= 0.0) return tx_power_w;
  const double dd = std::max(d, d0_);
  const double pl_db = 10.0 * exponent_ * std::log10(dd / d0_) -
                       shadowing_db(from, to);
  return tx_power_w * pl_d0_linear_ * std::pow(10.0, -pl_db / 10.0);
}

}  // namespace mhp
