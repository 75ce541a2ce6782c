#include "core/polling_simulation.hpp"

#include <algorithm>

#include "obs/profiler.hpp"

namespace mhp {

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg,
                                     std::vector<double> rates_bps,
                                     const RuntimeOptions& rt_opts)
    : field_(std::move(cfg), rt_opts,
             {"polling/warmup", "polling/measured", "polling/replan"}) {
  MHP_SPAN("polling/setup");
  const FieldCluster cluster{&deployment, Vec2{}, 0, std::move(rates_bps)};
  field_.set_up(std::span(&cluster, 1), /*head_stream=*/0, Time{});
}

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg, double rate_bps,
                                     const RuntimeOptions& rt_opts)
    : PollingSimulation(deployment, std::move(cfg),
                        std::vector<double>(deployment.num_sensors(),
                                            rate_bps),
                        rt_opts) {}

SimulationReport PollingSimulation::run(Time duration, Time warmup) {
  field_.run(duration, warmup);

  MHP_SPAN("polling/collect");
  SimulationReport rep;
  rep.sectors = stack().sector_partition()
                    ? stack().sector_partition()->sectors.size()
                    : 1;

  const HeadAgent& head = stack().head();
  field_.export_nodes();
  std::uint64_t overflow = 0;
  double active_sum = 0.0, power_sum = 0.0;
  for (NodeId id = 0; id < num_sensors(); ++id) {
    const SensorAgent& s = stack().sensor(id);
    overflow += s.packets_dropped_overflow();
    const double active = s.meter().active_fraction();
    const double power = s.meter().average_power_w();
    active_sum += active;
    power_sum += power;
    rep.max_active_fraction = std::max(rep.max_active_fraction, active);
    rep.max_sensor_power_w = std::max(rep.max_sensor_power_w, power);
  }
  const auto n = static_cast<double>(num_sensors());
  rep.mean_sensor_power_w = power_sum / n;

  // Mirror the stack's totals into the runtime registry; the shared
  // report core is then populated from it.
  const Time now = field_.runtime().sim().now();
  MetricsRegistry& m = metrics();
  m.counter(metric::kPacketsGenerated).add(field_.generated());
  m.counter(metric::kPacketsDelivered).add(head.packets_received());
  m.counter(metric::kBytesDelivered).add(head.bytes_received());
  m.counter(metric::kPacketsLost)
      .add(head.packets_lost_abort() + head.packets_lost_retry() + overflow);
  m.counter("polling.reactivations").add(head.reactivations());
  m.counter("polling.cycles_completed").add(head.cycles_completed());
  m.gauge(metric::kMeanActiveFraction).set(now, active_sum / n);
  m.gauge("sensors.mean_power_w").set(now, rep.mean_sensor_power_w);
  m.gauge(metric::kMeanLatencyS)
      .set(now, m.histogram(metric::kLatencyHistS).mean());

  static_cast<FieldRollup&>(rep) = field_.roll_up();
  static_cast<RunStats&>(rep) = field_.runtime().collect_run_stats(
      duration - warmup, field_.config().data_bytes);
  rep.packets_lost = m.counter(metric::kPacketsLost).value();
  rep.mean_duty_seconds =
      head.duty_time_s().empty() ? 0.0 : head.duty_time_s().mean();
  return rep;
}

}  // namespace mhp
