// SimRuntime / MetricsRegistry layer tests.
//
// The golden tests pin fixed-seed reports of all three simulation stacks
// to the exact values the pre-SimRuntime implementation produced
// (captured at the refactor boundary): identical seeds must keep
// producing identical reports now that substrate ownership moved into
// the shared runtime.
#include <gtest/gtest.h>

#include "baseline/smac_simulation.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/polling_simulation.hpp"
#include "metrics/registry.hpp"
#include "net/deployment.hpp"
#include "obs/report_json.hpp"
#include "sim/runtime.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

// Relative tolerance for golden doubles: generous enough for FP noise
// across build flags, far below any behavioural change.
void expect_golden(double actual, double golden) {
  EXPECT_NEAR(actual, golden, 1e-9 * std::max(1.0, std::abs(golden)));
}

// ---------- MetricsRegistry ----------

TEST(Metrics, CountersAccumulateAndDefaultToZero) {
  MetricsRegistry m;
  m.counter("a").add();
  m.counter("a").add(4);
  EXPECT_EQ(m.counter("a").value(), 5u);
  EXPECT_EQ(m.counter("untouched").value(), 0u);
  EXPECT_NE(m.find_counter("a"), nullptr);
  EXPECT_EQ(m.find_counter("missing"), nullptr);
}

TEST(Metrics, GaugeIsTimeWeighted) {
  Gauge g;
  g.set(Time::sec(0), 1.0);
  g.set(Time::sec(10), 3.0);
  // 10 s at value 1, then 10 s at value 3.
  EXPECT_DOUBLE_EQ(g.mean(Time::sec(20)), 2.0);
  EXPECT_DOUBLE_EQ(g.last(), 3.0);
  // Zero-width window degenerates to the last sample.
  Gauge one_shot;
  one_shot.set(Time::sec(5), 7.0);
  EXPECT_DOUBLE_EQ(one_shot.mean(Time::sec(5)), 7.0);
}

TEST(Metrics, BeginWindowZeroesCountersAndRestartsGauges) {
  MetricsRegistry m;
  m.counter("c").add(10);
  m.gauge("g").set(Time::sec(0), 4.0);
  m.begin_window(Time::sec(100));
  EXPECT_EQ(m.counter("c").value(), 0u);
  // The gauge keeps its value but averages over the new window only.
  m.gauge("g").set(Time::sec(150), 4.0);
  EXPECT_DOUBLE_EQ(m.gauge("g").mean(Time::sec(200)), 4.0);
}

TEST(Metrics, SnapshotIsOrderedAndQueryable) {
  MetricsRegistry m;
  m.counter("z.last").add(1);
  m.counter("a.first").add(2);
  m.gauge("g").set(Time::sec(1), 0.5);
  const MetricsSnapshot snap = m.snapshot(Time::sec(2));
  EXPECT_EQ(snap.at, Time::sec(2));
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.first");  // std::map order
  EXPECT_EQ(snap.counter("z.last"), 1u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_FALSE(snap.has_counter("absent"));
  EXPECT_DOUBLE_EQ(snap.gauge_last("g"), 0.5);
}

// ---------- SimRuntime ----------

TEST(Runtime, PropagationMisuseIsRejected) {
  SimRuntime rt(1);
  EXPECT_THROW(rt.add_channel(RadioParams{}, {{0, 0}}, {1e-3}),
               ContractViolation);
  rt.adopt_propagation(std::make_unique<FreeSpace>());
  EXPECT_THROW(rt.adopt_propagation(std::make_unique<FreeSpace>()),
               ContractViolation);
  rt.add_channel(RadioParams{}, {{0, 0}, {10, 0}}, {1e-3, 1e-3});
  EXPECT_EQ(rt.num_channels(), 1u);
}

// ---------- Golden determinism: polling stack ----------

Deployment golden_polling_deployment() {
  Rng rng(1);
  return deploy_connected_uniform_square(12, 160.0, 60.0, rng);
}

TEST(RuntimeGolden, PollingReportUnchangedByRefactor) {
  ProtocolConfig cfg;  // seed 1
  PollingSimulation sim(golden_polling_deployment(), cfg, 20.0);
  const SimulationReport r = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_EQ(r.packets_generated, 92u);
  EXPECT_EQ(r.packets_delivered, 88u);
  EXPECT_EQ(r.packets_lost, 0u);
  EXPECT_EQ(r.sectors, 1u);
  expect_golden(r.offered_bps, 245.33333333333331);
  expect_golden(r.throughput_bps, 234.66666666666663);
  expect_golden(r.delivery_ratio, 0.95652173913043481);
  expect_golden(r.mean_active_fraction, 0.075265940705555548);
  expect_golden(r.max_active_fraction, 0.075347349499999994);
  expect_golden(r.mean_sensor_power_w, 0.0015951272730747779);
  expect_golden(r.max_sensor_power_w, 0.0016332160430099999);
  expect_golden(r.mean_latency_s, 0.70614411692045431);
  expect_golden(r.mean_duty_seconds, 0.073624000000000009);
}

TEST(RuntimeGolden, PollingMetricsSnapshotMatchesReport) {
  ProtocolConfig cfg;
  PollingSimulation sim(golden_polling_deployment(), cfg, 20.0);
  const SimulationReport r = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_EQ(r.metrics.counter(metric::kPacketsGenerated),
            r.packets_generated);
  EXPECT_EQ(r.metrics.counter(metric::kPacketsDelivered),
            r.packets_delivered);
  EXPECT_EQ(r.metrics.counter(metric::kPacketsLost), r.packets_lost);
  EXPECT_GT(r.metrics.counter(metric::kChannelFramesTx),
            r.packets_delivered);  // data + polls + acks
  EXPECT_GT(r.metrics.counter("polling.cycles_completed"), 0u);
  EXPECT_DOUBLE_EQ(r.metrics.gauge_last(metric::kMeanActiveFraction),
                   r.mean_active_fraction);
  EXPECT_DOUBLE_EQ(r.metrics.gauge_last(metric::kMeanLatencyS),
                   r.mean_latency_s);
  // The registry stays queryable on the live simulation object too.
  EXPECT_EQ(sim.metrics().counter(metric::kPacketsGenerated).value(),
            r.packets_generated);
}

// ---------- Golden determinism: multi-cluster stack ----------

std::vector<ClusterSpec> golden_two_clusters() {
  std::vector<ClusterSpec> specs;
  Rng rng(3);
  for (int i = 0; i < 2; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(10, 170.0, 60.0, rng);
    spec.origin = {i * 200.0, 0.0};
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(RuntimeGolden, MultiClusterReportUnchangedByRefactor) {
  ProtocolConfig cfg;
  cfg.seed = 3;
  MultiClusterSimulation sim(golden_two_clusters(), cfg,
                             InterClusterMode::kColored, 30.0);
  const MultiClusterReport r = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_EQ(r.channels_used, 2);
  expect_golden(r.aggregate_delivery, 0.98672566371681414);
  expect_golden(r.aggregate_throughput_bps, 594.66666666666663);
  ASSERT_EQ(r.delivery_ratio.size(), 2u);
  expect_golden(r.delivery_ratio[0], 0.97368421052631582);
  expect_golden(r.delivery_ratio[1], 1.0);
  expect_golden(r.mean_active[0], 0.057551423089999984);
  expect_golden(r.mean_active[1], 0.059678924753333328);
}

TEST(RuntimeGolden, MultiClusterMetricsSnapshotCoversTheField) {
  ProtocolConfig cfg;
  cfg.seed = 3;
  MultiClusterSimulation sim(golden_two_clusters(), cfg,
                             InterClusterMode::kColored, 30.0);
  const MultiClusterReport r = sim.run(Time::sec(40), Time::sec(10));
  EXPECT_EQ(r.totals.metrics.counter("clusters"), 2u);
  EXPECT_EQ(r.totals.packets_generated,
            r.totals.metrics.counter(metric::kPacketsGenerated));
  EXPECT_GT(r.totals.packets_generated, 0u);
  EXPECT_DOUBLE_EQ(r.totals.delivery_ratio, r.aggregate_delivery);
  EXPECT_DOUBLE_EQ(r.totals.throughput_bps, r.aggregate_throughput_bps);
  // Both isolated channels contribute to the shared frame counter.
  EXPECT_GT(r.totals.metrics.counter(metric::kChannelFramesTx),
            r.totals.packets_delivered);
}

// ---------- Golden determinism: S-MAC baseline stack ----------

Deployment golden_smac_deployment() {
  Rng rng(1);
  return deploy_connected_uniform_square(10, 140.0, 60.0, rng);
}

TEST(RuntimeGolden, SmacReportUnchangedByRefactor) {
  SmacConfig cfg;  // duty 0.5, seed 1
  SmacSimulation sim(golden_smac_deployment(), cfg, 15.0);
  const SmacReport r = sim.run(Time::sec(30), Time::sec(5));
  EXPECT_EQ(r.packets_generated, 49u);
  EXPECT_EQ(r.packets_delivered, 39u);
  EXPECT_EQ(r.packets_dropped, 10u);
  EXPECT_EQ(r.control_frames, 429u);
  EXPECT_EQ(r.rreq_floods, 19u);
  EXPECT_EQ(r.mac_failures, 7u);
  expect_golden(r.offered_bps, 156.80000000000001);
  expect_golden(r.throughput_bps, 124.8);
  expect_golden(r.delivery_ratio, 0.79591836734693877);
  expect_golden(r.mean_active_fraction, 0.50113920000000001);
  expect_golden(r.mean_latency_s, 0.17764777533333334);
}

TEST(RuntimeGolden, SmacMetricsSnapshotMatchesReport) {
  SmacConfig cfg;
  SmacSimulation sim(golden_smac_deployment(), cfg, 15.0);
  const SmacReport r = sim.run(Time::sec(30), Time::sec(5));
  EXPECT_EQ(r.metrics.counter(metric::kPacketsGenerated),
            r.packets_generated);
  EXPECT_EQ(r.metrics.counter(metric::kPacketsLost), r.packets_dropped);
  EXPECT_EQ(r.metrics.counter("smac.control_frames"), r.control_frames);
  EXPECT_EQ(r.metrics.counter("smac.rreq_floods"), r.rreq_floods);
  EXPECT_EQ(r.metrics.counter("smac.mac_failures"), r.mac_failures);
  EXPECT_GT(r.metrics.counter(metric::kChannelFramesTx),
            r.control_frames);  // control + data + sync
  EXPECT_DOUBLE_EQ(r.metrics.gauge_last(metric::kMeanActiveFraction),
                   r.mean_active_fraction);
}

// ---------- Oracle cache counters ----------

// The registry's oracle.cache_* counters count the measured window's
// queries; the report's oracle block counts the whole run's.  Without a
// warm-up the two cover the same queries; a warm-up's queries (the heads
// poll from 10 ms) are in the block only.
void expect_window_within_block(const MetricsSnapshot& metrics,
                                const OracleCacheStats& block, Time warmup) {
  const std::uint64_t hits = metrics.counter(metric::kOracleCacheHit);
  const std::uint64_t misses = metrics.counter(metric::kOracleCacheMiss);
  if (warmup == Time{}) {
    EXPECT_EQ(hits, block.hits);
    EXPECT_EQ(misses, block.misses);
  } else {
    EXPECT_GT(hits + misses, 0u);
    EXPECT_LT(hits, block.hits);
    EXPECT_LT(misses, block.misses);
  }
}

TEST(OracleReport, RegistryCountersAreTheCacheBlockOverTheWindow) {
  for (const Time warmup : {Time{}, Time::sec(10)}) {
    SCOPED_TRACE(testing::Message() << "warmup " << warmup.to_seconds());
    PollingSimulation polling(golden_polling_deployment(), ProtocolConfig{},
                              20.0);
    const SimulationReport p = polling.run(Time::sec(40), warmup);
    expect_window_within_block(p.metrics, p.oracle, warmup);

    ProtocolConfig cfg;
    cfg.seed = 3;
    MultiClusterSimulation field(golden_two_clusters(), cfg,
                                 InterClusterMode::kColored, 30.0);
    const MultiClusterReport f = field.run(Time::sec(40), warmup);
    expect_window_within_block(f.totals.metrics, f.oracle, warmup);
  }
}

// ---------- Metric reference stability across windows ----------

TEST(Metrics, CachedCounterReferenceSurvivesBeginWindow) {
  // Agents cache Counter& across the warmup→measurement boundary;
  // begin_window must zero counters in place, never reallocate them.
  MetricsRegistry m;
  Counter& c = m.counter("cached");
  c.add(7);
  m.begin_window(Time::sec(10));
  EXPECT_EQ(c.value(), 0u);  // the cached reference sees the reset
  c.add(3);
  EXPECT_EQ(m.counter("cached").value(), 3u);
  EXPECT_EQ(&m.counter("cached"), &c);  // same object, not a re-insert
}

TEST(Metrics, GaugeMeanIgnoresHistoryBeforeBeginWindow) {
  MetricsRegistry m;
  Gauge& g = m.gauge("g");
  g.set(Time::sec(0), 100.0);  // warmup value: must not leak into the mean
  m.begin_window(Time::sec(10));
  g.set(Time::sec(10), 2.0);
  g.set(Time::sec(20), 4.0);
  // 10 s at 2, then 10 s at 4 → 3; the 100.0 before the window is gone.
  EXPECT_DOUBLE_EQ(g.mean(Time::sec(30)), 3.0);
  EXPECT_EQ(&m.gauge("g"), &g);
}

}  // namespace
}  // namespace mhp
