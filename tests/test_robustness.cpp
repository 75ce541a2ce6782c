// Robustness and property tests across modules: event-queue fuzz against
// a reference model, scheduler behaviour under heavy loss, protocol
// configuration matrix, and energy-weighted routing.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/greedy_scheduler.hpp"
#include "core/polling_simulation.hpp"
#include "core/routing.hpp"
#include "net/deployment.hpp"
#include "route/routing_engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

// ---------- Event queue fuzz vs reference model ----------

class EventQueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
  Rng rng(9200 + static_cast<std::uint64_t>(GetParam()));
  EventQueue q;
  // Reference: (time, seq) → id, mirroring the queue's tie-break order.
  std::map<std::pair<std::int64_t, std::uint64_t>, EventId> model;
  std::map<EventId, std::pair<std::int64_t, std::uint64_t>> by_id;
  std::uint64_t seq = 0;

  for (int step = 0; step < 2000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.55) {
      const auto t = static_cast<std::int64_t>(rng.below(1000));
      const EventId id = q.push(Time::ns(t), [] {});
      model[{t, seq}] = id;
      by_id[id] = {t, seq};
      ++seq;
    } else if (dice < 0.75 && !by_id.empty()) {
      // Cancel a random known id (possibly already popped).
      auto it = by_id.begin();
      std::advance(it, static_cast<long>(rng.below(by_id.size())));
      const bool in_model = model.contains(it->second);
      EXPECT_EQ(q.cancel(it->first), in_model);
      model.erase(it->second);
      by_id.erase(it);
    } else {
      const auto popped = q.pop();
      if (model.empty()) {
        EXPECT_FALSE(popped.has_value());
      } else {
        ASSERT_TRUE(popped.has_value());
        const auto expect = model.begin();
        EXPECT_EQ(popped->id, expect->second);
        EXPECT_EQ(popped->when.nanos(), expect->first.first);
        by_id.erase(expect->second);
        model.erase(expect);
      }
    }
    EXPECT_EQ(q.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz, ::testing::Range(0, 8));

// The poll-timeout retry pattern: arm a timer, cancel it when the reply
// arrives, arm the next.  The previous lazy-cancel kernel left one dead
// heap entry per cancel, so memory grew with the cancel count; the arena
// kernel must stay bounded by the peak number of *live* events no matter
// how many events churn through.
TEST(EventQueueMemory, CancelHeavyWorkloadStaysBounded) {
  EventQueue q;
  constexpr std::size_t kTimers = 32;
  constexpr int kRounds = 100'000;
  std::vector<EventId> timers;
  timers.reserve(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i)
    timers.push_back(q.push(Time::ns(static_cast<std::int64_t>(i)), [] {}));
  Rng rng(4242);
  for (int round = 1; round <= kRounds; ++round) {
    const std::size_t k = rng.below(kTimers);
    ASSERT_TRUE(q.cancel(timers[k]));
    timers[k] =
        q.push(Time::ns(static_cast<std::int64_t>(round * 7 % 1000)), [] {});
  }
  EXPECT_EQ(q.size(), kTimers);
  // One slot per live timer; the free list never needs more than one
  // spare (the slot released by the cancel is reused by the next push).
  EXPECT_LE(q.arena_slots(), kTimers + 1);
  // Drain in order to prove the heap is intact after the churn.
  Time last = Time::zero();
  std::size_t drained = 0;
  while (auto ev = q.pop()) {
    EXPECT_GE(ev->when, last);
    last = ev->when;
    ++drained;
  }
  EXPECT_EQ(drained, kTimers);
}

// ---------- Greedy scheduler under heavy loss ----------

TEST(GreedyLoss, EveryExecutedSlotIsCompatible) {
  // Under 50% per-hop loss the schedule keeps re-polling; every executed
  // slot must still be oracle-compatible and the run must finish.
  Rng rng(77);
  const Deployment dep = deploy_connected_uniform_square(10, 150.0, 60.0, rng);
  const ClusterTopology topo = disc_topology(dep, 60.0);
  const auto routing = route::RoutingEngine().solve_balanced(
      topo, std::vector<std::int64_t>(10, 1));
  ASSERT_TRUE(routing.feasible);
  ExplicitOracle oracle(3);
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < 10; ++s) paths.push_back(routing.paths[s][0].hops);
  const auto txs = transmissions_of_paths(paths);
  for (std::size_t i = 0; i < txs.size(); ++i)
    for (std::size_t j = i + 1; j < txs.size(); ++j)
      oracle.allow_pair(txs[i], txs[j]);

  Rng loss_rng(78);
  const auto result =
      run_offline(oracle, paths, bernoulli_loss(0.5, loss_rng));
  ASSERT_TRUE(result.all_delivered);
  EXPECT_GT(result.reactivations, 0u);
  for (const auto& slot : result.schedule.slots) {
    std::vector<Tx> group;
    for (const auto& s : slot) group.push_back(s.tx);
    EXPECT_TRUE(oracle.compatible(group));
  }
  // Loss inflates the schedule beyond the loss-free length.
  const auto clean = run_offline(oracle, paths);
  EXPECT_GT(result.slots, clean.slots);
}

TEST(GreedyLoss, PathologicalLossHitsMaxSlotsGuard) {
  ExplicitOracle oracle(2);
  std::vector<std::vector<NodeId>> paths = {{0, 9}};
  const auto never = [](const ScheduledTx&, std::size_t) { return false; };
  const auto result = run_offline(oracle, paths, never, /*max_slots=*/50);
  EXPECT_FALSE(result.all_delivered);
  EXPECT_EQ(result.slots, 50u);
}

// ---------- Protocol configuration matrix ----------

struct MatrixParam {
  int oracle_order;
  bool sectors;
  bool rotate;
};

// "order2_sectors_fixed": names the case in --gtest_list_tests and ctest
// (the default would print the struct's bytes, padding included).
std::string matrix_name(const MatrixParam& p) {
  return "order" + std::to_string(p.oracle_order) +
         (p.sectors ? "_sectors" : "_flat") +
         (p.rotate ? "_rotating" : "_fixed");
}

void PrintTo(const MatrixParam& p, std::ostream* os) { *os << matrix_name(p); }

class ProtocolMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ProtocolMatrix, DeliversAtModestLoad) {
  const auto p = GetParam();
  ProtocolConfig cfg;
  cfg.oracle_order = p.oracle_order;
  cfg.use_sectors = p.sectors;
  cfg.rotate_paths = p.rotate;
  Rng rng(31);
  const Deployment dep = deploy_connected_uniform_square(14, 160.0, 60.0, rng);
  PollingSimulation sim(dep, cfg, 20.0);
  const auto rep = sim.run(Time::sec(30), Time::sec(5));
  EXPECT_GE(rep.delivery_ratio, 0.9)
      << "order=" << p.oracle_order << " sectors=" << p.sectors
      << " rotate=" << p.rotate;
  EXPECT_LT(rep.mean_active_fraction, 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ProtocolMatrix,
    ::testing::Values(MatrixParam{1, false, false},
                      MatrixParam{2, false, true},
                      MatrixParam{3, false, true},
                      MatrixParam{2, true, false},
                      MatrixParam{3, true, false}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return matrix_name(info.param);
    });

TEST(ProtocolStress, HeavyRandomLossStillTerminates) {
  ProtocolConfig cfg;
  cfg.random_loss = 0.6;
  cfg.max_retries = 4;
  Rng rng(32);
  const Deployment dep = deploy_connected_uniform_square(10, 150.0, 60.0, rng);
  PollingSimulation sim(dep, cfg, 20.0);
  const auto rep = sim.run(Time::sec(30), Time::sec(5));
  // Most packets die, but the protocol never wedges: cycles keep running
  // and the head keeps abandoning hopeless requests.
  EXPECT_GT(sim.head().cycles_completed(), 15u);
  EXPECT_GT(rep.packets_lost + rep.packets_delivered, 0u);
}

TEST(ProtocolStress, LargeWakeJitterStillWorks) {
  ProtocolConfig cfg;
  cfg.wake_jitter = Time::us(900);  // close to the 1 ms wake margin
  Rng rng(33);
  const Deployment dep = deploy_connected_uniform_square(12, 160.0, 60.0, rng);
  PollingSimulation sim(dep, cfg, 20.0);
  const auto rep = sim.run(Time::sec(30), Time::sec(5));
  EXPECT_GE(rep.delivery_ratio, 0.9);
}

TEST(ProtocolStress, ShortCyclePeriod) {
  ProtocolConfig cfg;
  cfg.cycle_period = Time::ms(200);
  Rng rng(34);
  const Deployment dep = deploy_connected_uniform_square(8, 140.0, 60.0, rng);
  PollingSimulation sim(dep, cfg, 10.0);
  const auto rep = sim.run(Time::sec(30), Time::sec(5));
  EXPECT_GE(rep.delivery_ratio, 0.9);
  EXPECT_LT(rep.mean_latency_s, 0.5);
}

// ---------- Energy-weighted routing ----------

TEST(WeightedRouting, StrongSensorsCarryMore) {
  // Diamond: sensor 2 relays through gateway 0 or 1.  With gateway 0
  // twice as strong, the weighted plan pushes more flow through it.
  Graph g(3);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  ClusterTopology topo(std::move(g), {true, true, false});
  const std::vector<std::int64_t> demand = {1, 1, 4};

  const RelayPlan even = RelayPlan::balanced(topo, demand);
  const RelayPlan skewed =
      RelayPlan::balanced_weighted(topo, demand, {2, 1, 2});

  // Even capacities split 2/2 through the gateways; the skewed plan may
  // give gateway 0 more.  Invariant: the weighted max load respects the
  // weights (load ≤ δ·w per sensor).
  const auto delta = skewed.max_load();
  EXPECT_LE(skewed.load(0), 2 * delta);
  EXPECT_LE(skewed.load(1), 1 * delta);
  EXPECT_GE(skewed.load(0), skewed.load(1));
  EXPECT_LE(skewed.max_load(), even.max_load());
}

}  // namespace
}  // namespace mhp
