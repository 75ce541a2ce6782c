#include "core/polling_simulation.hpp"

#include <algorithm>
#include <cmath>

#include "core/ack_collection.hpp"
#include "core/route_repair.hpp"
#include "obs/profiler.hpp"
#include "sim/sampler.hpp"
#include "util/assertx.hpp"

namespace mhp {

PollingSimulation::RotatingProvider::RotatingProvider(
    const ClusterTopology& topo, const RelayPlan& plan)
    : topo_(topo), plan_(plan) {}

const std::vector<SectorPlan>& PollingSimulation::RotatingProvider::plans(
    std::uint64_t cycle) {
  if (cycle == cached_cycle_) return cached_;
  const std::size_t n = topo_.num_sensors();
  SectorPlan sp;
  sp.members.resize(n);
  for (NodeId s = 0; s < n; ++s) sp.members[s] = s;
  std::vector<std::vector<NodeId>> candidates;
  candidates.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    auto path = plan_.path_for_cycle(s, cycle).hops;
    sp.data_path[s] = path;
    candidates.push_back(std::move(path));
  }
  const AckPlan ack = plan_ack_cover(sp.members, candidates);
  MHP_ENSURE(ack.covers_all, "ack cover incomplete");
  sp.ack_paths = ack.poll_paths;
  cached_.clear();
  cached_.push_back(std::move(sp));
  cached_cycle_ = cycle;
  return cached_;
}

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg,
                                     std::vector<double> rates_bps,
                                     const RuntimeOptions& rt_opts)
    : cfg_(cfg), rates_(std::move(rates_bps)), rt_(cfg.seed, rt_opts) {
  MHP_REQUIRE(rates_.size() == deployment.num_sensors(),
              "one rate per sensor required");
  setup(deployment);
}

PollingSimulation::PollingSimulation(const Deployment& deployment,
                                     ProtocolConfig cfg, double rate_bps,
                                     const RuntimeOptions& rt_opts)
    : PollingSimulation(deployment, cfg,
                        std::vector<double>(deployment.num_sensors(),
                                            rate_bps),
                        rt_opts) {}

void PollingSimulation::setup(const Deployment& deployment) {
  MHP_SPAN("polling/setup");
  const std::size_t n = deployment.num_sensors();
  MHP_REQUIRE(n >= 1, "need at least one sensor");

  switch (cfg_.propagation) {
    case PropagationModel::kTwoRayGround:
      rt_.adopt_propagation(std::make_unique<TwoRayGround>());
      break;
    case PropagationModel::kFreeSpace:
      rt_.adopt_propagation(std::make_unique<FreeSpace>());
      break;
    case PropagationModel::kLogNormalShadowing:
      rt_.adopt_propagation(std::make_unique<LogDistanceShadowing>(
          cfg_.shadowing_exponent, cfg_.shadowing_sigma_db, 1.0, 914e6,
          cfg_.environment_seed));
      break;
  }
  std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
  powers[n] = RadioParams::kHeadTxPowerW;
  Channel& channel =
      rt_.add_channel(cfg_.radio, deployment.positions, powers);

  // §V-B: the head discovers connectivity by probing, which amounts to the
  // channel's interference-free link test.
  {
    MHP_SPAN("topology");
    topo_ = std::make_unique<ClusterTopology>(link_topology(channel, n));
  }
  MHP_REQUIRE(topo_->fully_connected(),
              "cluster not fully connected; adjust deployment");

  // Routing demand: expected packets per duty cycle (at least 1 so every
  // sensor owns a relaying path).
  const double cycle_s = cfg_.cycle_period.to_seconds();
  std::vector<std::int64_t>& demand = demand_;
  demand.assign(n, 0);
  for (NodeId s = 0; s < n; ++s) {
    const double per_cycle =
        rates_[s] * cycle_s / static_cast<double>(cfg_.data_bytes);
    demand[s] = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(std::ceil(per_cycle))));
  }
  {
    MHP_SPAN("routing");
    plan_ = std::make_unique<RelayPlan>(
        *topo_, cfg_.routing == RoutingPolicy::kShortestPath
                    ? engine_.solve_shortest(*topo_, demand)
                    : engine_.solve_balanced(*topo_, demand));
  }

  truth_ = std::make_unique<ChannelOracle>(channel, cfg_.oracle_order);

  // Assemble sector plans (one covering sector when sectoring is off).
  std::vector<SectorPlan> sector_plans;
  std::vector<int> sector_of(n, 0);
  {
    MHP_SPAN("sectors");
    if (cfg_.use_sectors) {
      SectorPartitioner partitioner(*topo_);
      partition_ = partitioner.partition(*plan_, demand, truth_.get());
      for (std::size_t k = 0; k < partition_->sectors.size(); ++k) {
        SectorPlan sp;
        sp.members = partition_->sectors[k].sensors;
        std::vector<std::vector<NodeId>> candidates;
        for (NodeId s : sp.members) {
          auto path = partition_->tree_path(s, topo_->head());
          sp.data_path[s] = path;
          candidates.push_back(std::move(path));
        }
        const AckPlan ack = plan_ack_cover(sp.members, candidates);
        MHP_ENSURE(ack.covers_all, "ack cover incomplete for sector");
        sp.ack_paths = ack.poll_paths;
        for (NodeId s : sp.members) sector_of[s] = static_cast<int>(k);
        sector_plans.push_back(std::move(sp));
      }
    } else {
      SectorPlan sp;
      sp.members.resize(n);
      for (NodeId s = 0; s < n; ++s) sp.members[s] = s;
      std::vector<std::vector<NodeId>> candidates;
      for (NodeId s = 0; s < n; ++s) {
        auto path = plan_->path_for_cycle(s, 0).hops;
        sp.data_path[s] = path;
        candidates.push_back(std::move(path));
      }
      const AckPlan ack = plan_ack_cover(sp.members, candidates);
      MHP_ENSURE(ack.covers_all, "ack cover incomplete");
      sp.ack_paths = ack.poll_paths;
      sector_plans.push_back(std::move(sp));
    }
  }

  // §V-E: probe the interference pattern over the transmissions the plans
  // actually use.  With rotation every unit path may be used, so the
  // probe universe covers them all.
  const bool rotate = cfg_.rotate_paths && !cfg_.use_sectors;
  std::vector<std::vector<NodeId>> all_paths;
  for (const auto& sp : sector_plans) {
    for (const auto& [s, path] : sp.data_path) all_paths.push_back(path);
    for (const auto& path : sp.ack_paths) all_paths.push_back(path);
  }
  if (rotate)
    for (NodeId s = 0; s < n; ++s)
      for (const auto& p : plan_->paths(s)) all_paths.push_back(p.hops);
  {
    MHP_SPAN("oracle_probe");
    oracle_ = std::make_unique<MeasuredOracle>(
        *truth_, transmissions_of_paths(all_paths), cfg_.oracle_order);
  }
  const CompatibilityOracle& sched_oracle = scheduling_oracle();

  Rng& root = rt_.root_rng();
  if (rotate) {
    provider_ = std::make_unique<RotatingProvider>(*topo_, *plan_);
    head_ = std::make_unique<HeadAgent>(topo_->head(), rt_.sim(), channel,
                                        rt_.uids(), cfg_, sched_oracle,
                                        *provider_, root.split(0),
                                        &rt_.trace());
  } else {
    head_ = std::make_unique<HeadAgent>(topo_->head(), rt_.sim(), channel,
                                        rt_.uids(), cfg_, sched_oracle,
                                        std::move(sector_plans),
                                        root.split(0), &rt_.trace());
  }
  // Distribution instrumentation: delivery latency at the head, queue
  // depth at every sensor.  Registry metrics reset in place on
  // begin_window, so these references stay valid for the run.
  MetricsRegistry& m = rt_.metrics();
  HistogramMetric& latency_hist = m.histogram(
      metric::kLatencyHistS, 0.0, 20.0 * cfg_.cycle_period.to_seconds(), 64);
  head_->set_latency_histogram(&latency_hist);
  HistogramMetric& queue_hist = m.histogram(
      metric::kQueueDepth, 0.0,
      static_cast<double>(cfg_.queue_capacity + 1), cfg_.queue_capacity + 1);

  sensors_.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    auto agent = std::make_unique<SensorAgent>(s, rt_.sim(), channel,
                                               rt_.uids(), cfg_,
                                               root.split(s + 1));
    agent->set_sector(sector_of[s]);
    agent->set_head(topo_->head());
    agent->set_queue_histogram(&queue_hist);
    agent->start_sampling(rates_[s]);
    sensors_.push_back(std::move(agent));
  }

  // Fault injection and head-driven recovery.  With an empty plan and
  // recovery off this installs nothing: no injector, no handlers, no
  // extra rng draws — fault-free runs stay byte-identical.
  if (!cfg_.faults.empty()) {
    FaultInjector& inj = rt_.install_faults(cfg_.faults);
    inj.set_death_handler(
        [this](const NodeDeath& d) { on_node_death(d); });
    for (const auto& d : cfg_.faults.deaths()) {
      MHP_REQUIRE(d.node < n, "fault plan kills a node outside the cluster");
      if (d.cause == NodeDeath::Cause::kBattery)
        sensors_[d.node]->set_battery(
            d.battery_j,
            [this, node = d.node] { rt_.faults()->battery_exhausted(node); });
    }
    if (!cfg_.faults.degradations().empty()) {
      head_->set_fault_injector(rt_.faults());
      for (auto& s : sensors_) s->set_fault_injector(rt_.faults());
    }
    inj.arm();
  }
  if (cfg_.recovery.enabled)
    head_->set_replan_handler(
        [this](NodeId declared) { replan_after_death(declared); });

  // Live trajectory for the sampler, when one was requested: standard
  // counters are only mirrored into the registry at end of run, so push
  // the watched gauges from agent state before each tick.
  if (MetricsSampler* sp = rt_.sampler(); sp != nullptr) {
    sp->add_refresh_hook([this](Time now) {
      MetricsRegistry& reg = rt_.metrics();
      std::uint64_t alive = 0;
      double energy = 0.0;
      for (const auto& s : sensors_) {
        if (!s->dead()) ++alive;
        energy += s->meter().total_energy_j();
      }
      reg.gauge(sample::kAliveNodes).set(now, static_cast<double>(alive));
      reg.gauge(sample::kEnergyJ).set(now, energy);
      reg.gauge(sample::kDelivered)
          .set(now, static_cast<double>(head_->packets_received()));
      reg.gauge(sample::kGenerated)
          .set(now, static_cast<double>(sum_generated()));
    });
  }

  head_->start(Time::ms(10));
}

const CompatibilityOracle& PollingSimulation::scheduling_oracle() {
  if (!cfg_.cache_oracle) return *oracle_;
  // A fresh wrapper per oracle generation: the head may still query the
  // previous one until its next phase, so it retires rather than resets.
  if (cached_oracle_) retired_caches_.push_back(std::move(cached_oracle_));
  // Pair screening is sound here: the measured oracle inherits SINR
  // monotonicity (an interfering pair interferes in every superset).
  cached_oracle_ = std::make_unique<CachedOracle>(
      *oracle_, CachedOracle::PairScreen::kOn);
  MetricsRegistry& m = rt_.metrics();
  cached_oracle_->bind_counters(&m.counter(metric::kOracleCacheHit),
                                &m.counter(metric::kOracleCacheMiss));
  return *cached_oracle_;
}

std::uint64_t PollingSimulation::sum_generated() const {
  std::uint64_t total = 0;
  for (const auto& s : sensors_) total += s->packets_generated();
  return total;
}

void PollingSimulation::on_node_death(const NodeDeath& death) {
  sensors_.at(death.node)->fail();
  if (!have_first_death_) {
    have_first_death_ = true;
    death_gen_ = sum_generated();
    death_del_ = head_->packets_received();
    // Until a repair happens, "after" also counts from the first death.
    repair_gen_ = death_gen_;
    repair_del_ = death_del_;
  }
}

void PollingSimulation::replan_after_death(NodeId declared) {
  MHP_SPAN("polling/replan");
  declared_dead_.push_back(declared);
  const RelayPlan* hint = repair_plan_ ? repair_plan_.get() : plan_.get();
  RouteRepair repair = repair_routes(*topo_, declared_dead_, demand_,
                                     cfg_.routing, &engine_, hint);

  // Re-probe interference over the transmissions the repaired plan uses.
  // The old oracle is retired, not destroyed: the head still references
  // it until its next phase begins.
  retired_oracles_.push_back(std::move(oracle_));
  oracle_ = std::make_unique<MeasuredOracle>(
      *truth_, transmissions_of_paths(repair.probe_paths),
      cfg_.oracle_order);
  head_->set_oracle(scheduling_oracle());

  // The repaired cluster drains as one sector; re-home every surviving
  // member so it follows sector-0 wake/sleep control.
  for (NodeId s : repair.sectors.front().members)
    sensors_[s]->set_sector(0);
  head_->replace_plans(std::move(repair.sectors));
  repair_plan_ = std::make_unique<RelayPlan>(std::move(repair.plan));
  last_orphaned_ = repair.orphaned.size();
  repair_gen_ = sum_generated();
  repair_del_ = head_->packets_received();
}

SimulationReport PollingSimulation::run(Time duration, Time warmup) {
  MHP_REQUIRE(duration > warmup, "duration must exceed warmup");
  Simulator& sim = rt_.sim();
  {
    MHP_SPAN("polling/warmup");
    sim.run_until(warmup);
  }
  head_->reset_stats(sim.now());
  for (auto& s : sensors_) s->reset_stats(sim.now());
  rt_.begin_measurement();

  {
    MHP_SPAN("polling/measured");
    const std::uint64_t events_before = sim.events_executed();
    sim.run_until(duration);
    MHP_SPAN_COUNTER("events", sim.events_executed() - events_before);
    MHP_SPAN_COUNTER("oracle_hits",
                     rt_.metrics().counter(metric::kOracleCacheHit).value());
    MHP_SPAN_COUNTER("oracle_misses",
                     rt_.metrics().counter(metric::kOracleCacheMiss).value());
  }

  MHP_SPAN("polling/collect");
  const Time measured = duration - warmup;
  SimulationReport rep;
  rep.sectors = partition_ ? partition_->sectors.size() : 1;

  std::uint64_t generated = 0;
  std::uint64_t overflow = 0;
  double active_sum = 0.0, power_sum = 0.0;
  MetricsRegistry& m = rt_.metrics();
  for (auto& s : sensors_) {
    s->settle(sim.now());
    generated += s->packets_generated();
    overflow += s->packets_dropped_overflow();
    const double active = s->meter().active_fraction();
    const double power = s->meter().average_power_w();
    active_sum += active;
    power_sum += power;
    rep.max_active_fraction = std::max(rep.max_active_fraction, active);
    rep.max_sensor_power_w = std::max(rep.max_sensor_power_w, power);
    // Per-node accounting (labeled series; see registry node_metric).
    const NodeId id = s->id();
    m.counter(node_metric(metric::kNodeRelayed, id))
        .add(s->packets_relayed());
    m.counter(node_metric(metric::kNodeFramesTx, id)).add(s->frames_sent());
    m.gauge(node_metric(metric::kNodeEnergyJ, id))
        .set(sim.now(), s->meter().total_energy_j());
    m.gauge(node_metric(metric::kNodeAwakeS, id))
        .set(sim.now(), (s->meter().total_time() -
                         s->meter().time_in(RadioState::kSleep))
                            .to_seconds());
  }
  const auto n = static_cast<double>(sensors_.size());
  rep.mean_sensor_power_w = power_sum / n;

  // Mirror the stack's totals into the runtime registry; the shared
  // report core is then populated from it.
  m.counter(metric::kPacketsGenerated).add(generated);
  m.counter(metric::kPacketsDelivered).add(head_->packets_received());
  m.counter(metric::kBytesDelivered).add(head_->bytes_received());
  m.counter(metric::kPacketsLost)
      .add(head_->packets_lost_abort() + head_->packets_lost_retry() +
           overflow);
  m.counter("polling.reactivations").add(head_->reactivations());
  m.counter("polling.cycles_completed").add(head_->cycles_completed());
  m.gauge(metric::kMeanActiveFraction).set(sim.now(), active_sum / n);
  m.gauge("sensors.mean_power_w").set(sim.now(), rep.mean_sensor_power_w);
  m.gauge(metric::kMeanLatencyS)
      .set(sim.now(),
           head_->latency_s().empty() ? 0.0 : head_->latency_s().mean());

  // Degradation accounting — only when the run could degrade at all, so
  // fault-free reports (keys and metrics snapshot included) stay
  // byte-identical to pre-fault builds.
  if (!cfg_.faults.empty() || cfg_.recovery.enabled) {
    const auto sat = [](std::uint64_t a, std::uint64_t b) {
      return a > b ? a - b : std::uint64_t{0};
    };
    const auto ratio = [](std::uint64_t del, std::uint64_t gen) {
      return gen == 0 ? 1.0
                      : static_cast<double>(del) / static_cast<double>(gen);
    };
    DegradationReport deg;
    if (const FaultInjector* inj = rt_.faults(); inj != nullptr) {
      deg.dead_nodes = inj->dead_nodes();
      deg.deaths = deg.dead_nodes.size();
    }
    deg.deaths_detected = head_->deaths_detected();
    deg.replans = head_->replans();
    deg.orphaned_sensors = last_orphaned_;
    const std::uint64_t gen_end = sum_generated();
    const std::uint64_t del_end = head_->packets_received();
    if (have_first_death_) {
      deg.delivery_before = ratio(death_del_, death_gen_);
      deg.delivery_after =
          ratio(sat(del_end, repair_del_), sat(gen_end, repair_gen_));
    } else {
      deg.delivery_before = ratio(del_end, gen_end);
      deg.delivery_after = deg.delivery_before;
    }
    rep.degradation = deg;
    m.counter("fault.deaths").add(deg.deaths);
    m.counter("fault.deaths_detected").add(deg.deaths_detected);
    m.counter("fault.replans").add(deg.replans);
    m.counter("fault.orphaned_sensors").add(deg.orphaned_sensors);
  }

  if (cached_oracle_ != nullptr) {
    OracleCacheStats oracle;
    oracle.add(*cached_oracle_);
    for (const auto& retired : retired_caches_) oracle.add(*retired);
    rep.oracle = oracle;
  }

  static_cast<RunStats&>(rep) =
      rt_.collect_run_stats(measured, cfg_.data_bytes);
  rep.packets_lost = m.counter(metric::kPacketsLost).value();
  rep.mean_duty_seconds =
      head_->duty_time_s().empty() ? 0.0 : head_->duty_time_s().mean();
  return rep;
}

}  // namespace mhp
