#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/assertx.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace mhp {
namespace {

// ---------- Time ----------

TEST(Time, UnitConversions) {
  EXPECT_EQ(Time::us(1).nanos(), 1000);
  EXPECT_EQ(Time::ms(1).nanos(), 1'000'000);
  EXPECT_EQ(Time::sec(1).nanos(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(Time::ms(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::us(2500).to_millis(), 2.5);
}

TEST(Time, SecondsRoundsToNearestNano) {
  EXPECT_EQ(Time::seconds(1e-9).nanos(), 1);
  EXPECT_EQ(Time::seconds(0.5).nanos(), 500'000'000);
  EXPECT_EQ(Time::seconds(1.0000000004).nanos(), 1'000'000'000);
}

TEST(Time, Arithmetic) {
  const Time a = Time::ms(3), b = Time::ms(2);
  EXPECT_EQ((a + b).nanos(), Time::ms(5).nanos());
  EXPECT_EQ((a - b).nanos(), Time::ms(1).nanos());
  EXPECT_EQ((a * 4).nanos(), Time::ms(12).nanos());
  EXPECT_EQ(a / b, 1);
  EXPECT_LT(b, a);
}

// ---------- EventQueue ----------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(Time::ms(3), [&] { order.push_back(3); });
  q.push(Time::ms(1), [&] { order.push_back(1); });
  q.push(Time::ms(2), [&] { order.push_back(2); });
  while (auto ev = q.pop()) ev->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.push(Time::ms(1), [&, i] { order.push_back(i); });
  while (auto ev = q.pop()) ev->fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(Time::ms(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel fails
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, PeekSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(Time::ms(1), [] {});
  q.push(Time::ms(5), [] {});
  q.cancel(early);
  ASSERT_TRUE(q.peek_time().has_value());
  EXPECT_EQ(*q.peek_time(), Time::ms(5));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(Time::ms(1), [] {});
  q.push(Time::ms(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, StaleHandleSurvivesSlotReuse) {
  // The arena recycles slots; a handle from a popped or cancelled event
  // carries the old generation and must not cancel the slot's new tenant.
  EventQueue q;
  const EventId a = q.push(Time::ms(1), [] {});
  ASSERT_TRUE(q.cancel(a));
  const EventId b = q.push(Time::ms(2), [] {});  // reuses a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));  // stale generation
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(Time::ms(1), [] {});
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMidHeapKeepsOrder) {
  // Cancelling removes the heap entry eagerly; remaining events must
  // still fire in (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(q.push(Time::ms(10 - i), [&order, i] { order.push_back(i); }));
  for (int i = 1; i < 10; i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  while (auto ev = q.pop()) ev->fn();
  EXPECT_EQ(order, (std::vector<int>{8, 6, 4, 2, 0}));
}

TEST(EventFnStorage, SmallCallbacksStoreInlineLargeOnesOnHeap) {
  int hits = 0;
  EventFn small([&hits] { ++hits; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(hits, 1);

  std::array<char, 128> payload{};
  payload[0] = 7;
  EventFn large([payload, &hits] { hits += payload[0]; });
  EXPECT_FALSE(large.is_inline());
  large();
  EXPECT_EQ(hits, 8);
}

TEST(EventFnStorage, MoveTransfersTarget) {
  int hits = 0;
  EventFn a([&hits] { ++hits; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

// ---------- Firing in place ----------

TEST(EventQueue, FiringEventIsNotPendingAndItsHandleIsStale) {
  EventQueue q;
  Time now;
  EventId self = 0;
  std::size_t size_inside = 99;
  bool empty_inside = false;
  bool cancelled_self = true;
  std::optional<Time> peek_inside;
  self = q.push(Time::ms(1), [&] {
    size_inside = q.size();
    peek_inside = q.peek_time();
    cancelled_self = q.cancel(self);
    q.push(Time::ms(1), [&] { empty_inside = q.empty(); });
  });
  q.push(Time::ms(4), [] {});
  ASSERT_TRUE(q.fire_next(Time::max(), now));
  EXPECT_EQ(now, Time::ms(1));
  EXPECT_EQ(size_inside, 1u);
  ASSERT_TRUE(peek_inside.has_value());
  EXPECT_EQ(*peek_inside, Time::ms(4));
  EXPECT_FALSE(cancelled_self);
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.fire_next(Time::ms(1), now));  // the same-time push
  EXPECT_FALSE(empty_inside);                   // the 4 ms event remains
  EXPECT_FALSE(q.fire_next(Time::ms(3), now));  // not due yet
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, FirstPushFromACallbackTakesTheRoot) {
  EventQueue q;
  Time now;
  std::vector<int> order;
  q.push(Time::ms(1), [&] {
    order.push_back(1);
    q.push(Time::ms(5), [&] { order.push_back(5); });  // takes the root
    q.push(Time::ms(2), [&] { order.push_back(2); });  // an ordinary push
  });
  q.push(Time::ms(3), [&] { order.push_back(3); });
  while (q.fire_next(Time::max(), now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5}));
  EXPECT_EQ(q.root_handoffs(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ThrowingCallbackLeavesSizeOrderAndSlotReuseIntact) {
  EventQueue q;
  Time now;
  std::vector<int> order;
  // One callback throws after its push took the root, one before any push.
  q.push(Time::ms(1), [&] {
    q.push(Time::ms(6), [&] { order.push_back(6); });
    throw std::runtime_error("after a push");
  });
  q.push(Time::ms(2), [] { throw std::runtime_error("before a push"); });
  q.push(Time::ms(3), [&] { order.push_back(3); });
  EXPECT_EQ(q.arena_slots(), 3u);
  EXPECT_THROW(q.fire_next(Time::max(), now), std::runtime_error);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_THROW(q.fire_next(Time::max(), now), std::runtime_error);
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.peek_time().has_value());
  EXPECT_EQ(*q.peek_time(), Time::ms(3));
  // Both thrown events' slots are free again: two pushes need no new slot.
  q.push(Time::ms(4), [&] { order.push_back(4); });
  q.push(Time::ms(5), [&] { order.push_back(5); });
  EXPECT_EQ(q.arena_slots(), 4u);
  while (q.fire_next(Time::max(), now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{3, 4, 5, 6}));
}

TEST(EventQueue, CallbackRunsInPlaceWhileItsPushesGrowTheArena) {
  EventQueue q;
  Time now;
  std::array<std::uint64_t, 4> seen{};
  const std::array<std::uint64_t, 4> payload{11, 22, 33, 44};
  q.push(Time::ms(1), [&q, &seen, payload] {
    for (int i = 0; i < 1000; ++i) q.push(Time::ms(2), [] {});
    seen = payload;  // still readable after the arena grew new chunks
  });
  ASSERT_TRUE(q.fire_next(Time::max(), now));
  EXPECT_EQ(seen, payload);
  EXPECT_EQ(q.size(), 1000u);
}

TEST(EventQueue, PushTakesAnEventFnAsItIsAndRejectsANullOne) {
  EventQueue q;
  Time now;
  int hits = 0;
  q.push(Time::ms(1), EventFn([&hits] { ++hits; }));
  EXPECT_THROW(q.push(Time::ms(2), EventFn()), ContractViolation);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.arena_slots(), 1u);
  ASSERT_TRUE(q.fire_next(Time::max(), now));
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, PopFromACallbackThrows) {
  EventQueue q;
  Time now;
  q.push(Time::ms(1), [&q] { q.pop(); });
  q.push(Time::ms(2), [] {});
  EXPECT_THROW(q.fire_next(Time::max(), now), ContractViolation);
  EXPECT_EQ(q.size(), 1u);
}

// ---------- Simulator ----------

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> at;
  sim.at(Time::ms(5), [&] { at.push_back(sim.now().nanos()); });
  sim.at(Time::ms(2), [&] { at.push_back(sim.now().nanos()); });
  sim.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{Time::ms(2).nanos(),
                                           Time::ms(5).nanos()}));
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  Time fired;
  sim.at(Time::ms(10), [&] {
    sim.after(Time::ms(5), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, Time::ms(15));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int ran = 0;
  sim.at(Time::ms(1), [&] { ++ran; });
  sim.at(Time::ms(10), [&] { ++ran; });
  sim.run_until(Time::ms(5));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), Time::ms(5));
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int ran = 0;
  sim.at(Time::ms(1), [&] {
    ++ran;
    sim.stop();
  });
  sim.at(Time::ms(2), [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();  // resumes
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.at(Time::ms(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.at(Time::ms(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(Time::ms(5), [] {}), ContractViolation);
  EXPECT_THROW(sim.after(Time::ms(0) - Time::ms(1), [] {}),
               ContractViolation);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int ran = 0;
  sim.at(Time::ms(1), [&] { ++ran; });
  sim.at(Time::ms(2), [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, NestedRunOrStepFromACallbackThrows) {
  Simulator sim;
  int ran = 0;
  sim.at(Time::ms(1), [&] { sim.run_until(Time::ms(5)); });
  sim.at(Time::ms(2), [&] { ++ran; });
  EXPECT_THROW(sim.run(), ContractViolation);
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(sim.pending());
  sim.at(Time::ms(3), [&] { sim.step(); });
  EXPECT_THROW(sim.run(), ContractViolation);  // after the 2 ms event
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sim.pending());
  EXPECT_EQ(sim.now(), Time::ms(3));
}

/// Counts the moves and copies of one callable on its way into the queue.
struct MoveCounter {
  int* moves;
  int* copies;
  int* calls;
  MoveCounter(int* m, int* c, int* k) : moves(m), copies(c), calls(k) {}
  MoveCounter(const MoveCounter& o)
      : moves(o.moves), copies(o.copies), calls(o.calls) {
    ++*copies;
  }
  MoveCounter(MoveCounter&& o) noexcept
      : moves(o.moves), copies(o.copies), calls(o.calls) {
    ++*moves;
  }
  void operator()() { ++*calls; }
};

TEST(Simulator, CallbackIsMovedAtMostOnceBeforeItRuns) {
  Simulator sim;
  int moves = 0, copies = 0, calls = 0;
  sim.after(Time::ms(1), MoveCounter(&moves, &copies, &calls));
  // Many more events around it, so the heap reorders while it waits.
  for (int i = 0; i < 100; ++i) sim.after(Time::us(10 * i), [] {});
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_LE(moves, 1);
  EXPECT_EQ(copies, 0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.after(Time::us(1), recurse);
  };
  sim.after(Time::us(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

}  // namespace
}  // namespace mhp
