#include "core/polling_simulation.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg,
                                     std::vector<double> rates_bps,
                                     const RuntimeOptions& rt_opts)
    : cfg_(std::move(cfg)), rt_(cfg_.seed, rt_opts) {
  const std::size_t n = deployment.num_sensors();
  MHP_REQUIRE(rates_bps.size() == n, "one rate per sensor required");
  MHP_SPAN("polling/setup");
  rt_.adopt_propagation(make_propagation(cfg_));
  std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
  powers[n] = RadioParams::kHeadTxPowerW;
  Channel* channel = nullptr;
  {
    MHP_SPAN("channel");
    channel = &rt_.add_channel(cfg_.radio, deployment.positions,
                               std::move(powers));
    span_channel_counters(rt_.channel_stats());
  }
  {
    MHP_SPAN("topology");
    stack_ = std::make_unique<ClusterStack>(rt_, *channel, 0, cfg_,
                                            std::move(rates_bps));
  }
  MinMaxLoadResult routes;
  {
    MHP_SPAN("routing");
    const route::ClusterRouteJob job = stack_->route_job();
    routes = engine_.solve(job.routing, *job.topo, job.demand);
  }
  stack_->build(std::move(routes), 0, 0);

  // Fault injection and head-driven recovery.  With an empty plan and
  // recovery off this installs nothing: no injector, no handlers, no
  // extra rng draws — fault-free runs stay byte-identical.
  if (!cfg_.faults.empty()) {
    FaultInjector& inj = rt_.install_faults(cfg_.faults);
    inj.set_death_handler([this](const NodeDeath& d) {
      stack_->sensor(d.node).fail();
      ledger_.on_death(stack_->generated(), stack_->delivered());
    });
    for (const auto& d : cfg_.faults.deaths()) {
      MHP_REQUIRE(d.node < n, "fault plan kills a node outside the cluster");
      if (d.cause == NodeDeath::Cause::kBattery)
        stack_->sensor(d.node).set_battery(
            d.battery_j,
            [this, node = d.node] { rt_.faults()->battery_exhausted(node); });
    }
    if (!cfg_.faults.degradations().empty()) {
      stack_->head().set_fault_injector(rt_.faults());
      for (NodeId s = 0; s < n; ++s)
        stack_->sensor(s).set_fault_injector(rt_.faults());
    }
    inj.arm();
  }
  if (cfg_.recovery.enabled)
    stack_->head().set_replan_handler([this](NodeId declared) {
      MHP_SPAN("polling/replan");
      stack_->replan(declared, engine_);
      ledger_.on_repair(stack_->generated(), stack_->delivered());
    });
  sample_clusters(rt_, std::span(&stack_, 1));

  stack_->head().start(Time::ms(10));
}

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg, double rate_bps,
                                     const RuntimeOptions& rt_opts)
    : PollingSimulation(deployment, std::move(cfg),
                        std::vector<double>(deployment.num_sensors(),
                                            rate_bps),
                        rt_opts) {}

SimulationReport PollingSimulation::run(Time duration, Time warmup) {
  MHP_REQUIRE(duration > warmup, "duration must exceed warmup");
  Simulator& sim = rt_.sim();
  {
    MHP_SPAN("polling/warmup");
    sim.run_until(warmup);
  }
  stack_->reset_stats(sim.now());
  rt_.begin_measurement();

  {
    MHP_SPAN("polling/measured");
    const std::uint64_t events_before = sim.events_executed();
    const ChannelStats channel_before = rt_.channel_stats();
    sim.run_until(duration);
    MHP_SPAN_COUNTER("events", sim.events_executed() - events_before);
    span_channel_counters(rt_.channel_stats() - channel_before);
    MHP_SPAN_COUNTER("oracle_hits",
                     rt_.metrics().counter(metric::kOracleCacheHit).value());
    MHP_SPAN_COUNTER("oracle_misses",
                     rt_.metrics().counter(metric::kOracleCacheMiss).value());
  }

  MHP_SPAN("polling/collect");
  const Time measured = duration - warmup;
  SimulationReport rep;
  rep.sectors = stack_->sector_partition()
                    ? stack_->sector_partition()->sectors.size()
                    : 1;

  const HeadAgent& head = stack_->head();
  stack_->export_nodes(0);
  std::uint64_t generated = 0;
  std::uint64_t overflow = 0;
  double active_sum = 0.0, power_sum = 0.0;
  for (NodeId id = 0; id < stack_->num_sensors(); ++id) {
    const SensorAgent& s = stack_->sensor(id);
    generated += s.packets_generated();
    overflow += s.packets_dropped_overflow();
    const double active = s.meter().active_fraction();
    const double power = s.meter().average_power_w();
    active_sum += active;
    power_sum += power;
    rep.max_active_fraction = std::max(rep.max_active_fraction, active);
    rep.max_sensor_power_w = std::max(rep.max_sensor_power_w, power);
  }
  const auto n = static_cast<double>(stack_->num_sensors());
  rep.mean_sensor_power_w = power_sum / n;

  // Mirror the stack's totals into the runtime registry; the shared
  // report core is then populated from it.
  MetricsRegistry& m = rt_.metrics();
  m.counter(metric::kPacketsGenerated).add(generated);
  m.counter(metric::kPacketsDelivered).add(head.packets_received());
  m.counter(metric::kBytesDelivered).add(head.bytes_received());
  m.counter(metric::kPacketsLost)
      .add(head.packets_lost_abort() + head.packets_lost_retry() + overflow);
  m.counter("polling.reactivations").add(head.reactivations());
  m.counter("polling.cycles_completed").add(head.cycles_completed());
  m.gauge(metric::kMeanActiveFraction).set(sim.now(), active_sum / n);
  m.gauge("sensors.mean_power_w").set(sim.now(), rep.mean_sensor_power_w);
  m.gauge(metric::kMeanLatencyS)
      .set(sim.now(),
           head.latency_s().empty() ? 0.0 : head.latency_s().mean());

  // Degradation accounting — only when the run could degrade at all, so
  // fault-free reports (keys and metrics snapshot included) stay
  // byte-identical to pre-fault builds.
  if (!cfg_.faults.empty() || cfg_.recovery.enabled) {
    DegradationReport deg;
    deg.deaths_detected = head.deaths_detected();
    deg.replans = head.replans();
    deg.orphaned_sensors = stack_->orphaned();
    rep.degradation = rt_.collect_degradation(
        std::move(deg), ledger_, stack_->generated(), stack_->delivered());
  }

  if (cfg_.cache_oracle) {
    OracleCacheStats oracle;
    stack_->add_cache_stats(oracle);
    rep.oracle = oracle;
  }

  static_cast<RunStats&>(rep) =
      rt_.collect_run_stats(measured, cfg_.data_bytes);
  rep.packets_lost = m.counter(metric::kPacketsLost).value();
  rep.mean_duty_seconds =
      head.duty_time_s().empty() ? 0.0 : head.duty_time_s().mean();
  return rep;
}

}  // namespace mhp
