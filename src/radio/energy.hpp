// Radio energy accounting.
//
// The paper's motivation rests on the power ordering
// tx ≳ rx ≈ idle ≫ sleep: idle listening costs nearly as much as active
// reception, so minimising awake time is what saves energy.  The default
// model uses the widely cited relative ratios (Stemm–Katz / Raghunathan
// et al.) scaled to a typical mote's receive power.
#pragma once

#include <array>
#include <cstdint>

#include "sim/time.hpp"

namespace mhp {

enum class RadioState : std::uint8_t { kSleep, kIdle, kRx, kTx };
inline constexpr std::size_t kNumRadioStates = 4;

struct EnergyModel {
  double tx_w;
  double rx_w;
  double idle_w;
  double sleep_w;

  double power(RadioState s) const;

  /// tx:rx:idle:sleep = 1.4 : 1.05 : 1.0 : 0.001, scaled to 20 mW idle.
  static EnergyModel typical_sensor();

  /// Cluster heads are mains-rich; we still account their energy.
  static EnergyModel cluster_head();
};

/// Accumulates time and energy per radio state.
class EnergyMeter {
 public:
  explicit EnergyMeter(EnergyModel model) : model_(model) {}

  void accumulate(RadioState s, Time dur);

  Time time_in(RadioState s) const;
  double energy_in_j(RadioState s) const;

  Time total_time() const;
  double total_energy_j() const;

  /// Fraction of accounted time spent outside sleep.
  double active_fraction() const;

  /// Mean power over the accounted interval (J/s).
  double average_power_w() const;

  const EnergyModel& model() const { return model_; }

  void reset();

 private:
  EnergyModel model_;
  std::array<Time, kNumRadioStates> time_{};
};

/// Tracks the radio's current state against a simulation clock and feeds
/// the meter on every transition.
class RadioTracker {
 public:
  RadioTracker(EnergyModel model, Time start = Time::zero(),
               RadioState initial = RadioState::kSleep)
      : meter_(model), last_(start), state_(initial) {}

  RadioState state() const { return state_; }

  /// Transition to `next` at time `now` (accumulates the elapsed dwell).
  void set_state(Time now, RadioState next);

  /// Account time up to `now` without changing state.
  void settle(Time now);

  /// Settle, then zero the meter (end of a warm-up period).  The
  /// lifetime total keeps what the meter held.
  void reset(Time now) {
    settle(now);
    before_reset_j_ += meter_.total_energy_j();
    meter_.reset();
  }

  const EnergyMeter& meter() const { return meter_; }

  /// Energy spent since construction, across reset()s: what a battery
  /// drains.  Covers time up to the last settle().
  double lifetime_energy_j() const {
    return before_reset_j_ + meter_.total_energy_j();
  }

 private:
  EnergyMeter meter_;
  double before_reset_j_ = 0.0;
  Time last_;
  RadioState state_;
};

}  // namespace mhp
