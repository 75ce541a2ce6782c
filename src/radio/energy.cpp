#include "radio/energy.hpp"

#include "util/assertx.hpp"

namespace mhp {

double EnergyModel::power(RadioState s) const {
  switch (s) {
    case RadioState::kSleep:
      return sleep_w;
    case RadioState::kIdle:
      return idle_w;
    case RadioState::kRx:
      return rx_w;
    case RadioState::kTx:
      return tx_w;
  }
  return 0.0;
}

EnergyModel EnergyModel::typical_sensor() {
  constexpr double idle = 20e-3;  // 20 mW idle listening
  return EnergyModel{1.4 * idle, 1.05 * idle, idle, 0.001 * idle};
}

EnergyModel EnergyModel::cluster_head() {
  constexpr double idle = 200e-3;  // ten× a sensor; heads never sleep here
  return EnergyModel{1.4 * idle, 1.05 * idle, idle, 0.001 * idle};
}

void EnergyMeter::accumulate(RadioState s, Time dur) {
  MHP_REQUIRE(dur >= Time::zero(), "negative duration");
  time_[static_cast<std::size_t>(s)] += dur;
}

Time EnergyMeter::time_in(RadioState s) const {
  return time_[static_cast<std::size_t>(s)];
}

double EnergyMeter::energy_in_j(RadioState s) const {
  return model_.power(s) * time_in(s).to_seconds();
}

Time EnergyMeter::total_time() const {
  Time t = Time::zero();
  for (const auto& v : time_) t += v;
  return t;
}

double EnergyMeter::total_energy_j() const {
  double e = 0.0;
  for (std::size_t i = 0; i < kNumRadioStates; ++i)
    e += energy_in_j(static_cast<RadioState>(i));
  return e;
}

double EnergyMeter::active_fraction() const {
  const Time total = total_time();
  if (total == Time::zero()) return 0.0;
  const Time active = total - time_in(RadioState::kSleep);
  return active.to_seconds() / total.to_seconds();
}

double EnergyMeter::average_power_w() const {
  const Time total = total_time();
  if (total == Time::zero()) return 0.0;
  return total_energy_j() / total.to_seconds();
}

void EnergyMeter::reset() { time_.fill(Time::zero()); }

void RadioTracker::set_state(Time now, RadioState next) {
  settle(now);
  state_ = next;
}

void RadioTracker::begin_tx(Time now) {
  transmitting_ = true;
  set_state(now, RadioState::kTx);
}

void RadioTracker::end_tx(Time now) {
  transmitting_ = false;
  if (!asleep_)
    set_state(now, rx_depth_ > 0 ? RadioState::kRx : RadioState::kIdle);
}

void RadioTracker::sleep(Time now) {
  asleep_ = true;
  rx_depth_ = 0;
  set_state(now, RadioState::kSleep);
}

void RadioTracker::wake(Time now) {
  if (dead_ || !asleep_) return;
  asleep_ = false;
  set_state(now, RadioState::kIdle);
}

void RadioTracker::kill(Time now) {
  if (dead_) return;
  dead_ = true;
  transmitting_ = false;
  sleep(now);
}

void RadioTracker::set_battery(double budget_j,
                               std::function<void()> on_exhausted) {
  MHP_REQUIRE(budget_j > 0.0, "battery budget must be positive");
  battery_j_ = budget_j;
  on_battery_exhausted_ = std::move(on_exhausted);
}

void RadioTracker::settle(Time now) {
  MHP_REQUIRE(now >= last_, "time went backwards");
  meter_.accumulate(state_, now - last_);
  last_ = now;
}

}  // namespace mhp
