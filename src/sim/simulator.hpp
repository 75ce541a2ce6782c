// The discrete-event simulator core: a clock plus an event queue.
//
// Protocol agents schedule callbacks; run() drains the queue in time order.
// This is the NS-2-equivalent substrate everything else (radio channel, MAC
// protocols, cluster-head controller) is built on.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/assertx.hpp"

namespace mhp {

class Simulator {
 public:
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (must not be in the past).  The
  /// callable is built once, in the queue, and runs there.
  template <typename F>
  EventId at(Time when, F&& fn) {
    MHP_REQUIRE(when >= now_, "scheduling into the past");
    return queue_.push(when, std::forward<F>(fn));
  }

  /// Schedule `fn` after a delay (>= 0) from now.
  template <typename F>
  EventId after(Time delay, F&& fn) {
    MHP_REQUIRE(delay >= Time::zero(), "negative delay");
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue empties or stop() is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Run events with time <= deadline; afterwards now() == deadline unless
  /// stopped earlier.  Returns the number of events executed.  Not callable
  /// from inside an event callback.
  std::uint64_t run_until(Time deadline);

  /// Execute exactly one event if any is pending; returns whether one ran.
  /// Not callable from inside an event callback.
  bool step();

  /// Make run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  bool pending() const { return !queue_.empty(); }
  std::uint64_t events_executed() const { return executed_; }
  /// Events scheduled by a firing callback that took over its heap root.
  std::uint64_t root_handoffs() const { return queue_.root_handoffs(); }

 private:
  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace mhp
