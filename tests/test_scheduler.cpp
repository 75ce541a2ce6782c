// Tests for the schedule validator, the on-line greedy scheduler (Table 1)
// and the exact branch-and-bound solver.
#include <gtest/gtest.h>

#include <numeric>

#include "core/greedy_scheduler.hpp"
#include "core/optimal_scheduler.hpp"
#include "core/reductions.hpp"
#include "core/schedule.hpp"
#include "net/deployment.hpp"
#include "route/routing_engine.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

/// The paper's Fig 2 cluster: S1, S2, S3 with head t.  S2 relays through
/// S1; S2→S1 and S3→t are compatible.
struct Fig2 {
  // Ids: S1=0, S2=1, S3=2, head=3.
  ExplicitOracle oracle{2};
  std::vector<std::vector<NodeId>> paths;

  Fig2() {
    oracle.allow_pair(Tx{1, 0}, Tx{2, 3});
    paths = {{1, 0, 3}, {2, 3}};  // S2's packet, S3's packet
  }
};

// ---------- Schedule / validator ----------

TEST(Schedule, LengthAndConcurrency) {
  Schedule s;
  s.slots = {{ScheduledTx{Tx{1, 0}, 0, 0}, ScheduledTx{Tx{2, 3}, 1, 0}},
             {ScheduledTx{Tx{0, 3}, 0, 1}}};
  EXPECT_EQ(s.length(), 2u);
  EXPECT_EQ(s.total_transmissions(), 3u);
  EXPECT_EQ(s.peak_concurrency(), 2u);
  EXPECT_NE(s.to_string().find("slot 0"), std::string::npos);
}

TEST(Validator, AcceptsFig2OptimalSchedule) {
  Fig2 fig;
  std::vector<PollingRequest> reqs = {{0, {1, 0, 3}}, {1, {2, 3}}};
  Schedule s;
  s.slots = {{ScheduledTx{Tx{1, 0}, 0, 0}, ScheduledTx{Tx{2, 3}, 1, 0}},
             {ScheduledTx{Tx{0, 3}, 0, 1}}};
  EXPECT_TRUE(validate_schedule(reqs, s, fig.oracle).ok);
}

TEST(Validator, RejectsDelayedPacket) {
  Fig2 fig;
  std::vector<PollingRequest> reqs = {{0, {1, 0, 3}}};
  Schedule s;  // hop 0 in slot 0, hop 1 delayed to slot 2
  s.slots = {{ScheduledTx{Tx{1, 0}, 0, 0}},
             {},
             {ScheduledTx{Tx{0, 3}, 0, 1}}};
  const auto r = validate_schedule(reqs, s, fig.oracle);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("delayed"), std::string::npos);
}

TEST(Validator, RejectsWrongTransmission) {
  Fig2 fig;
  std::vector<PollingRequest> reqs = {{0, {1, 0, 3}}};
  Schedule s;
  s.slots = {{ScheduledTx{Tx{1, 3}, 0, 0}},  // wrong: hop 0 is 1→0
             {ScheduledTx{Tx{0, 3}, 0, 1}}};
  EXPECT_FALSE(validate_schedule(reqs, s, fig.oracle).ok);
}

TEST(Validator, RejectsMissingRequest) {
  Fig2 fig;
  std::vector<PollingRequest> reqs = {{0, {1, 0, 3}}, {1, {2, 3}}};
  Schedule s;
  s.slots = {{ScheduledTx{Tx{1, 0}, 0, 0}}, {ScheduledTx{Tx{0, 3}, 0, 1}}};
  const auto r = validate_schedule(reqs, s, fig.oracle);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("never scheduled"), std::string::npos);
}

TEST(Validator, RejectsIncompatibleSlot) {
  ExplicitOracle empty(2);  // nothing compatible
  std::vector<PollingRequest> reqs = {{0, {0, 4}}, {1, {2, 3}}};
  Schedule s;
  s.slots = {{ScheduledTx{Tx{0, 4}, 0, 0}, ScheduledTx{Tx{2, 3}, 1, 0}}};
  const auto r = validate_schedule(reqs, s, empty);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("incompatible"), std::string::npos);
}

TEST(LowerBound, MaxOfLengthAndCapacity) {
  std::vector<PollingRequest> reqs = {{0, {0, 1, 2, 9}},   // 3 hops
                                      {1, {3, 9}},         // 1 hop
                                      {2, {4, 9}},         // 1 hop
                                      {3, {5, 9}}};        // 1 hop
  // total 6 hops, order 2 → ≥3; longest path 3 → ≥3.
  EXPECT_EQ(schedule_lower_bound(reqs, 2), 3u);
  EXPECT_EQ(schedule_lower_bound(reqs, 1), 6u);
  EXPECT_EQ(schedule_lower_bound(reqs, 6), 3u);
}

// ---------- Greedy scheduler ----------

TEST(Greedy, Fig2CompletesInTwoSlots) {
  Fig2 fig;
  const auto result = run_offline(fig.oracle, fig.paths);
  EXPECT_TRUE(result.all_delivered);
  EXPECT_EQ(result.slots, 2u);  // the paper's optimal pipeline
  std::vector<PollingRequest> reqs = {{0, fig.paths[0]}, {1, fig.paths[1]}};
  EXPECT_TRUE(validate_schedule(reqs, result.schedule, fig.oracle).ok);
}

TEST(Greedy, SequentialWithoutCompatibility) {
  ExplicitOracle oracle(2);  // no pair compatible
  std::vector<std::vector<NodeId>> paths = {{1, 0, 3}, {2, 3}};
  const auto result = run_offline(oracle, paths);
  EXPECT_TRUE(result.all_delivered);
  EXPECT_EQ(result.slots, 3u);  // strictly serial
}

TEST(Greedy, OnlineInterfaceStepByStep) {
  Fig2 fig;
  GreedyPollingScheduler sched(fig.oracle);
  const RequestId r0 = sched.add_request(fig.paths[0]);
  const RequestId r1 = sched.add_request(fig.paths[1]);
  EXPECT_FALSE(sched.finished());

  auto slot0 = sched.plan_slot();
  ASSERT_EQ(slot0.size(), 2u);  // both admitted concurrently
  auto due0 = sched.due_now();
  ASSERT_EQ(due0.size(), 1u);
  EXPECT_EQ(due0[0], r1);  // single-hop request lands first
  sched.complete_slot(due0);

  auto slot1 = sched.plan_slot();
  ASSERT_EQ(slot1.size(), 1u);
  EXPECT_EQ(slot1[0].request, r0);
  auto due1 = sched.due_now();
  ASSERT_EQ(due1.size(), 1u);
  sched.complete_slot(due1);
  EXPECT_TRUE(sched.finished());
  EXPECT_EQ(sched.current_slot(), 2u);
}

TEST(Greedy, LossReactivatesRequest) {
  Fig2 fig;
  GreedyPollingScheduler sched(fig.oracle);
  sched.add_request(fig.paths[1]);  // single hop
  sched.plan_slot();
  sched.complete_slot({});  // nothing arrived
  EXPECT_FALSE(sched.finished());
  EXPECT_EQ(sched.reactivations(), 1u);
  sched.plan_slot();
  const auto due = sched.due_now();
  sched.complete_slot(due);
  EXPECT_TRUE(sched.finished());
}

TEST(Greedy, BernoulliLossStillCompletes) {
  Fig2 fig;
  Rng rng(9);
  const auto result =
      run_offline(fig.oracle, fig.paths, bernoulli_loss(0.3, rng));
  EXPECT_TRUE(result.all_delivered);
  EXPECT_GE(result.slots, 2u);
}

TEST(Greedy, AbandonRemovesActiveRequest) {
  Fig2 fig;
  GreedyPollingScheduler sched(fig.oracle);
  const RequestId id = sched.add_request(fig.paths[1]);
  sched.abandon(id);
  EXPECT_TRUE(sched.finished());
}

TEST(Greedy, PlanWithoutCompleteThrows) {
  Fig2 fig;
  GreedyPollingScheduler sched(fig.oracle);
  sched.add_request(fig.paths[1]);
  sched.plan_slot();
  EXPECT_THROW(sched.plan_slot(), ContractViolation);
}

TEST(Greedy, RespectsOracleOrderCap) {
  // Five independent single-hop requests, order 2: at most two per slot.
  ExplicitOracle oracle(2);
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < 5; ++s) {
    paths.push_back({s, 10});
    for (NodeId t = 0; t < s; ++t)
      oracle.allow_pair(Tx{s, 10}, Tx{t, 10});
  }
  // All pairs allowed — but sharing receiver 10 is structurally invalid,
  // so scheduling is strictly serial despite the table.
  const auto result = run_offline(oracle, paths);
  EXPECT_TRUE(result.all_delivered);
  EXPECT_EQ(result.slots, 5u);
}

TEST(Greedy, ParallelismBoundedByOrder) {
  ExplicitOracle oracle(2);
  // Disjoint single-hop requests, all pairs compatible.
  std::vector<std::vector<NodeId>> paths;
  std::vector<Tx> txs;
  for (NodeId s = 0; s < 6; ++s) {
    paths.push_back({static_cast<NodeId>(2 * s),
                     static_cast<NodeId>(2 * s + 1)});
    txs.push_back(Tx{static_cast<NodeId>(2 * s),
                     static_cast<NodeId>(2 * s + 1)});
  }
  for (std::size_t i = 0; i < txs.size(); ++i)
    for (std::size_t j = i + 1; j < txs.size(); ++j)
      oracle.allow_pair(txs[i], txs[j]);
  const auto result = run_offline(oracle, paths);
  EXPECT_TRUE(result.all_delivered);
  // Order 2 caps concurrency at 2 → 3 slots.
  EXPECT_EQ(result.slots, 3u);
  EXPECT_EQ(result.schedule.peak_concurrency(), 2u);
}

class GreedyOnRandomClusters : public ::testing::TestWithParam<int> {};

TEST_P(GreedyOnRandomClusters, ValidAndWithinBounds) {
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 4 + rng.below(10);
  const Deployment dep =
      deploy_connected_uniform_square(n, 150.0, 60.0, rng);
  const ClusterTopology topo = disc_topology(dep, 60.0);
  std::vector<std::int64_t> demand(n, 1);
  const auto routing = route::RoutingEngine().solve_balanced(topo, demand);
  ASSERT_TRUE(routing.feasible);

  // An oracle that admits everything structurally valid up to order 3
  // whose hops belong to the topology.
  ExplicitOracle oracle(3);
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < n; ++s) paths.push_back(routing.paths[s][0].hops);
  const auto txs = transmissions_of_paths(paths);
  for (std::size_t i = 0; i < txs.size(); ++i)
    for (std::size_t j = i + 1; j < txs.size(); ++j)
      oracle.allow_pair(txs[i], txs[j]);

  const auto result = run_offline(oracle, paths);
  ASSERT_TRUE(result.all_delivered);

  std::vector<PollingRequest> reqs;
  for (std::size_t i = 0; i < paths.size(); ++i)
    reqs.push_back({static_cast<RequestId>(i), paths[i]});
  EXPECT_TRUE(validate_schedule(reqs, result.schedule, oracle).ok);
  EXPECT_GE(result.slots, schedule_lower_bound(reqs, 3));
  std::size_t total_hops = 0;
  for (const auto& r : reqs) total_hops += r.hop_count();
  EXPECT_LE(result.slots, total_hops);  // never worse than fully serial
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyOnRandomClusters,
                         ::testing::Range(0, 15));

TEST(Greedy, BestOfOrdersNeverWorse) {
  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(4400 + static_cast<std::uint64_t>(seed));
    Graph g(5);
    for (NodeId i = 0; i < 5; ++i)
      for (NodeId j = i + 1; j < 5; ++j)
        if (rng.bernoulli(0.5)) g.add_edge(i, j);
    TsrfReduction red(g);
    std::vector<std::vector<NodeId>> paths;
    for (const auto& r : red.instance.requests()) paths.push_back(r.path);

    const auto base = run_offline(red.oracle, paths);
    Rng restart_rng(seed);
    const auto best = best_of_orders(red.oracle, paths, 10, restart_rng);
    ASSERT_TRUE(best.all_delivered);
    EXPECT_LE(best.slots, base.slots);
    // And the winner is still a valid schedule.
    EXPECT_GE(best.slots,
              schedule_lower_bound(red.instance.requests(), 2));
  }
}

// ---------- Optimal scheduler ----------

TEST(Optimal, MatchesKnownOptimumOnFig2) {
  Fig2 fig;
  std::vector<PollingRequest> reqs = {{0, fig.paths[0]}, {1, fig.paths[1]}};
  OptimalScheduler solver(fig.oracle);
  const auto result = solver.solve(reqs);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->slots, 2u);
  EXPECT_TRUE(validate_schedule(reqs, result->schedule, fig.oracle).ok);
}

TEST(Optimal, TsrfCompleteGraphPipelinesPerfectly) {
  // Complete interference graph → Hamiltonian path exists → k+1 slots.
  for (std::size_t k : {2u, 3u, 4u}) {
    Graph g(k);
    for (NodeId i = 0; i < k; ++i)
      for (NodeId j = i + 1; j < k; ++j) g.add_edge(i, j);
    TsrfReduction red(g);
    OptimalScheduler solver(red.oracle);
    const auto result = solver.solve(red.instance.requests());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->slots, k + 1);
  }
}

TEST(Optimal, TsrfEmptyGraphIsSerial) {
  Graph g(3);  // no edges → no pipelining possible
  TsrfReduction red(g);
  OptimalScheduler solver(red.oracle);
  const auto result = solver.solve(red.instance.requests());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->slots, 6u);  // 2 slots per branch, strictly serial
}

TEST(Optimal, NeverWorseThanGreedy) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(3000 + static_cast<std::uint64_t>(seed));
    // Random TSRF-like instance with random pair compatibilities.
    const std::size_t k = 3 + rng.below(3);
    Graph g(k);
    for (NodeId i = 0; i < k; ++i)
      for (NodeId j = i + 1; j < k; ++j)
        if (rng.bernoulli(0.5)) g.add_edge(i, j);
    TsrfReduction red(g);
    const auto reqs = red.instance.requests();

    std::vector<std::vector<NodeId>> paths;
    for (const auto& r : reqs) paths.push_back(r.path);
    const auto greedy = run_offline(red.oracle, paths);
    ASSERT_TRUE(greedy.all_delivered);

    OptimalScheduler solver(red.oracle);
    const auto opt = solver.solve(reqs);
    ASSERT_TRUE(opt.has_value());
    EXPECT_LE(opt->slots, greedy.slots);
    EXPECT_TRUE(validate_schedule(reqs, opt->schedule, red.oracle).ok);
    EXPECT_GE(opt->slots, schedule_lower_bound(reqs, 2));
  }
}

TEST(Optimal, BudgetDecision) {
  Graph g(3);  // empty: optimum is 6
  TsrfReduction red(g);
  OptimalScheduler solver(red.oracle);
  EXPECT_FALSE(solver.solve(red.instance.requests(), 4).has_value());
  EXPECT_TRUE(solver.solve(red.instance.requests(), 6).has_value());
}

TEST(Optimal, EmptyInstance) {
  ExplicitOracle oracle(2);
  OptimalScheduler solver(oracle);
  const auto result = solver.solve({});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->slots, 0u);
}

TEST(OfflineRun, TruncatedRunStillReportsCounters) {
  // Every hop fails, so the lone request is re-polled forever and the
  // run hits max_slots.  The truncated result must still carry the
  // attempt counters (they used to come back zeroed on this path).
  ExplicitOracle oracle(2);
  const std::vector<std::vector<NodeId>> paths = {{0, 9}};
  const auto always_lose = [](const ScheduledTx&, std::size_t) {
    return false;
  };
  const auto r = run_offline(oracle, paths, always_lose, /*max_slots=*/10);
  EXPECT_FALSE(r.all_delivered);
  EXPECT_EQ(r.slots, 10u);
  EXPECT_GE(r.transmissions, 10u);
  EXPECT_GE(r.reactivations, 9u);
}

TEST(Greedy, IdenticalPathsNeverShareOneTransmission) {
  // Two packets from the same sensor use the same edge: the set-semantics
  // oracle cannot tell two copies apart, so the scheduler itself must
  // serialize them (one radio sends one frame per slot).
  ExplicitOracle oracle(4);
  const std::vector<std::vector<NodeId>> paths = {{0, 9}, {0, 9}};
  const auto r = run_offline(oracle, paths);
  EXPECT_TRUE(r.all_delivered);
  EXPECT_EQ(r.slots, 2u);
  for (const auto& slot : r.schedule.slots) EXPECT_LE(slot.size(), 1u);
}

TEST(Optimal, IdenticalPathsNeverShareOneTransmission) {
  ExplicitOracle oracle(4);
  std::vector<PollingRequest> reqs;
  reqs.push_back(PollingRequest{0, {0, 9}});
  reqs.push_back(PollingRequest{1, {0, 9}});
  OptimalScheduler solver(oracle);
  const auto result = solver.solve(reqs);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->slots, 2u);
  EXPECT_TRUE(validate_schedule(reqs, result->schedule, oracle).ok);
}

}  // namespace
}  // namespace mhp
