// The discrete-event simulator core: a clock plus an event queue.
//
// Protocol agents schedule callbacks; run() drains the queue in time order.
// This is the NS-2-equivalent substrate everything else (radio channel, MAC
// protocols, cluster-head controller) is built on.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace mhp {

class Simulator {
 public:
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (must not be in the past).
  EventId at(Time when, EventFn fn);

  /// Schedule `fn` after a delay (>= 0) from now.
  EventId after(Time delay, EventFn fn);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue empties or stop() is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Run events with time <= deadline; afterwards now() == deadline unless
  /// stopped earlier.  Returns the number of events executed.
  std::uint64_t run_until(Time deadline);

  /// Execute exactly one event if any is pending; returns whether one ran.
  bool step();

  /// Make run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  bool pending() const { return !queue_.empty(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace mhp
