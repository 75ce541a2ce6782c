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
#include <functional>
#include <utility>

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

/// One node's half-duplex radio: its state, the meter each dwell is
/// charged to, and the battery those charges drain.  Methods take the
/// simulation time; the radio schedules nothing.  A frame start moves an
/// awake, non-transmitting radio to rx until the last overlapping frame
/// ends; frames that start or end during a transmission go unheard; sleep
/// and death forget the frames in progress, and death is final.
class RadioTracker {
 public:
  RadioTracker(EnergyModel model, Time start = Time::zero(),
               RadioState initial = RadioState::kSleep)
      : meter_(model), last_(start), state_(initial) {}

  RadioState state() const { return state_; }
  bool asleep() const { return asleep_; }  // a dead radio is asleep too
  bool transmitting() const { return transmitting_; }
  bool dead() const { return dead_; }

  /// Transition to `next` at time `now` (accumulates the elapsed dwell),
  /// bypassing the state rule.
  void set_state(Time now, RadioState next);

  // Called by every audible receiver on every frame: kept inline.
  void frame_begin(Time now) {
    if (asleep_ || transmitting_) return;
    if (rx_depth_++ == 0) set_state(now, RadioState::kRx);
  }
  void frame_end(Time now) {
    if (asleep_ || transmitting_ || rx_depth_ == 0) return;
    if (--rx_depth_ == 0) set_state(now, RadioState::kIdle);
  }

  void begin_tx(Time now);
  /// Back to rx while a heard frame is still arriving, else idle.
  void end_tx(Time now);
  void sleep(Time now);
  /// No-op unless asleep and alive.
  void wake(Time now);
  /// Radio off for good.  Idempotent.
  void kill(Time now);

  /// A finite budget for lifetime_energy_j(); unlimited by default.
  void set_battery(double budget_j, std::function<void()> on_exhausted);
  /// If the battery is spent at `now` and the radio lives: run `die` (the
  /// owner's cleanup, which kills this radio), then the exhausted
  /// callback, and return true.
  template <class Die>
  bool check_battery(Time now, Die&& die) {
    if (dead_ || battery_j_ <= 0.0) return false;
    settle(now);
    if (lifetime_energy_j() < battery_j_) return false;
    std::forward<Die>(die)();
    if (on_battery_exhausted_) on_battery_exhausted_();
    return true;
  }

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
  bool asleep_ = state_ == RadioState::kSleep;
  bool transmitting_ = false;
  bool dead_ = false;
  int rx_depth_ = 0;
  double battery_j_ = 0.0;  // 0 = unlimited
  std::function<void()> on_battery_exhausted_;
};

}  // namespace mhp
