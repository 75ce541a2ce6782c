#include "baseline/smac_simulation.hpp"

#include <algorithm>

#include "fault/fault_injector.hpp"
#include "util/assertx.hpp"

namespace mhp {

SmacSimulation::SmacSimulation(const Deployment& deployment, SmacConfig cfg,
                               std::vector<double> rates_bps,
                               const RuntimeOptions& rt_opts)
    : cfg_(cfg), rates_(std::move(rates_bps)), rt_(cfg.seed, rt_opts) {
  const std::size_t n = deployment.num_sensors();
  MHP_REQUIRE(rates_.size() == n, "one rate per sensor required");

  rt_.adopt_propagation(std::make_unique<TwoRayGround>());
  // In the S-MAC comparison every node is a peer; all use sensor power.
  std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
  Channel& channel =
      rt_.add_channel(cfg_.radio, deployment.positions, powers);

  Rng& root = rt_.root_rng();
  const auto sink = static_cast<NodeId>(n);
  nodes_.reserve(n + 1);
  // Schedule phases: nodes land in one of `schedule_groups` virtual
  // clusters, each with its own listen/sleep offset.
  const std::uint32_t groups = std::max(1u, cfg_.schedule_groups);
  for (NodeId i = 0; i < n; ++i) {
    const auto group = root.below(groups);
    const Time phase =
        Time::ns(static_cast<std::int64_t>(group) *
                 (cfg_.frame_period.nanos() /
                  static_cast<std::int64_t>(groups)));
    nodes_.push_back(std::make_unique<SmacNode>(
        i, sink, rt_.sim(), channel, rt_.uids(), cfg_, root.split(i + 1),
        /*always_on=*/false, phase));
  }
  nodes_.push_back(std::make_unique<SmacNode>(sink, sink, rt_.sim(),
                                              channel, rt_.uids(), cfg_,
                                              root.split(0),
                                              /*always_on=*/true));
  // Distribution instrumentation: sink-side delivery latency, per-node
  // queue depth.  References stay valid — begin_window resets in place.
  MetricsRegistry& m = rt_.metrics();
  HistogramMetric& latency_hist =
      m.histogram(metric::kLatencyHistS, 0.0, 10.0, 64);
  HistogramMetric& queue_hist = m.histogram(
      metric::kQueueDepth, 0.0,
      static_cast<double>(cfg_.queue_capacity + 1), cfg_.queue_capacity + 1);
  for (auto& node : nodes_) {
    node->set_latency_histogram(&latency_hist);
    node->set_queue_histogram(&queue_hist);
  }

  if (!cfg_.faults.empty()) {
    MHP_REQUIRE(cfg_.faults.degradations().empty(),
                "link-degradation windows are not modelled in the S-MAC "
                "baseline; schedule node deaths only");
    FaultInjector& inj = rt_.install_faults(cfg_.faults);
    inj.set_death_handler(
        [this](const NodeDeath& death) { on_node_death(death); });
    for (const NodeDeath& d : cfg_.faults.deaths()) {
      MHP_REQUIRE(d.node < n, "fault plan kills an unknown sensor");
      if (d.cause == NodeDeath::Cause::kBattery)
        nodes_[d.node]->set_battery(d.battery_j, [this, node = d.node] {
          rt_.faults()->battery_exhausted(node);
        });
    }
    inj.arm();
  }

  for (auto& node : nodes_) node->start();
  for (NodeId i = 0; i < n; ++i) nodes_[i]->start_cbr(rates_[i]);
}

void SmacSimulation::on_node_death(const NodeDeath& death) {
  nodes_.at(death.node)->fail();
  ledger_.on_death(sum_generated(), nodes_.back()->packets_delivered());
}

std::uint64_t SmacSimulation::sum_generated() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i + 1 < nodes_.size(); ++i)
    total += nodes_[i]->packets_generated();
  return total;
}

SmacSimulation::SmacSimulation(const Deployment& deployment, SmacConfig cfg,
                               double rate_bps,
                               const RuntimeOptions& rt_opts)
    : SmacSimulation(deployment, cfg,
                     std::vector<double>(deployment.num_sensors(),
                                         rate_bps),
                     rt_opts) {}

SmacReport SmacSimulation::run(Time duration, Time warmup) {
  MHP_REQUIRE(duration > warmup, "duration must exceed warmup");
  Simulator& sim = rt_.sim();
  sim.run_until(warmup);
  for (auto& node : nodes_) node->reset_stats(sim.now());
  rt_.begin_measurement();

  sim.run_until(duration);

  SmacReport rep;
  const auto& sink = *nodes_.back();
  std::uint64_t generated = 0;
  double active_sum = 0.0;
  MetricsRegistry& m = rt_.metrics();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& node = *nodes_[i];
    node.settle(sim.now());
    if (i + 1 < nodes_.size()) {  // sensors only
      generated += node.packets_generated();
      rep.packets_dropped += node.packets_dropped();
      active_sum += node.meter().active_fraction();
      rt_.export_node(i, node.meter(), node.packets_relayed(),
                      node.data_frames_sent() + node.control_frames_sent());
    }
    rep.control_frames += node.control_frames_sent();
    rep.rreq_floods += node.rreqs_sent();
    rep.mac_failures += node.mac_failures();
  }

  m.counter(metric::kPacketsGenerated).add(generated);
  m.counter(metric::kPacketsDelivered).add(sink.packets_delivered());
  m.counter(metric::kBytesDelivered).add(sink.bytes_delivered());
  m.counter(metric::kPacketsLost).add(rep.packets_dropped);
  m.counter("smac.control_frames").add(rep.control_frames);
  m.counter("smac.rreq_floods").add(rep.rreq_floods);
  m.counter("smac.mac_failures").add(rep.mac_failures);
  m.gauge(metric::kMeanActiveFraction)
      .set(sim.now(), active_sum / static_cast<double>(num_sensors()));
  m.gauge(metric::kMeanLatencyS)
      .set(sim.now(), m.histogram(metric::kLatencyHistS).mean());

  // No head-driven detection or replanning here: those counters stay
  // zero and AODV re-discovery is the only recovery.
  if (!cfg_.faults.empty())
    rep.degradation = rt_.collect_degradation({}, ledger_, generated,
                                              sink.packets_delivered());

  static_cast<RunStats&>(rep) =
      rt_.collect_run_stats(duration - warmup, cfg_.data_bytes);
  return rep;
}

}  // namespace mhp
