#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "util/assertx.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

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

// ---------- Trace ----------

TEST(Trace, DisabledCategoriesRecordNothing) {
  Trace tr;
  tr.record(Time::ms(1), TraceCat::kProtocol, "x");
  EXPECT_TRUE(tr.entries().empty());
}

TEST(Trace, EnabledCategoryRecords) {
  Trace tr;
  tr.enable(TraceCat::kChannel);
  tr.record(Time::ms(1), TraceCat::kChannel, "tx");
  tr.record(Time::ms(2), TraceCat::kProtocol, "poll");  // still disabled
  ASSERT_EQ(tr.entries().size(), 1u);
  EXPECT_EQ(tr.entries()[0].text, "tx");
  EXPECT_EQ(tr.texts(TraceCat::kChannel),
            std::vector<std::string>{"tx"});
}

TEST(Trace, RingStaysBoundedAndKeepsNewestEntries) {
  Trace tr;
  tr.enable_all();
  tr.set_max_entries(64);
  for (int i = 0; i < 1000; ++i)
    tr.record(Time::us(i), TraceCat::kChannel, "e" + std::to_string(i));
  ASSERT_EQ(tr.entries().size(), 64u);
  EXPECT_EQ(tr.dropped(), 1000u - 64u);
  // Every survivor, oldest first, in recording order.
  for (std::size_t i = 0; i < tr.entries().size(); ++i) {
    EXPECT_EQ(tr.entries()[i].text, "e" + std::to_string(936 + i));
    EXPECT_EQ(tr.entries()[i].when, Time::us(936 + static_cast<int>(i)));
  }
}

TEST(Trace, ShrinkingCapEvictsExistingOldest) {
  Trace tr;
  tr.enable_all();
  tr.set_max_entries(10);
  for (int i = 0; i < 10; ++i)
    tr.record(Time::us(i), TraceCat::kChannel, "e" + std::to_string(i));
  EXPECT_EQ(tr.dropped(), 0u);  // filling the ring exactly evicts nothing
  tr.set_max_entries(3);
  ASSERT_EQ(tr.entries().size(), 3u);
  EXPECT_EQ(tr.dropped(), 7u);
  EXPECT_EQ(tr.entries()[0].text, "e7");
  EXPECT_EQ(tr.entries()[1].text, "e8");
  EXPECT_EQ(tr.entries()[2].text, "e9");
}

TEST(Trace, ClearResetsEntriesAndDropCounter) {
  Trace tr;
  tr.enable_all();
  tr.set_max_entries(2);
  for (int i = 0; i < 5; ++i)
    tr.record(Time::us(i), TraceCat::kChannel, "x");
  tr.clear();
  EXPECT_TRUE(tr.entries().empty());
  EXPECT_EQ(tr.dropped(), 0u);
  tr.record(Time::us(9), TraceCat::kChannel, "fresh");
  EXPECT_EQ(tr.entries().size(), 1u);
}

}  // namespace
}  // namespace mhp
