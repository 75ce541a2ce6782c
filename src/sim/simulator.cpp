#include "sim/simulator.hpp"

namespace mhp {

std::uint64_t Simulator::run() { return run_until(Time::max()); }

std::uint64_t Simulator::run_until(Time deadline) {
  stopped_ = false;
  std::uint64_t ran = 0;
  while (!stopped_ && queue_.fire_next(deadline, now_)) {
    ++ran;
    ++executed_;
  }
  if (!stopped_ && deadline != Time::max() && now_ < deadline)
    now_ = deadline;
  return ran;
}

bool Simulator::step() {
  if (!queue_.fire_next(Time::max(), now_)) return false;
  ++executed_;
  return true;
}

}  // namespace mhp
