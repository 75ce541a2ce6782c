#include "core/cluster_stack.hpp"

#include <algorithm>
#include <cmath>

#include "core/route_repair.hpp"
#include "obs/profiler.hpp"
#include "radio/propagation.hpp"
#include "sim/sampler.hpp"
#include "util/assertx.hpp"

namespace mhp {
namespace {

/// The propagation model `cfg.propagation` names, with cfg's shadowing
/// parameters.
std::unique_ptr<Propagation> make_propagation(const ProtocolConfig& cfg) {
  switch (cfg.propagation) {
    case PropagationModel::kTwoRayGround:
      return std::make_unique<TwoRayGround>();
    case PropagationModel::kFreeSpace:
      return std::make_unique<FreeSpace>();
    case PropagationModel::kLogNormalShadowing:
      return std::make_unique<LogDistanceShadowing>(
          cfg.shadowing_exponent, cfg.shadowing_sigma_db, 1.0, 914e6,
          cfg.environment_seed);
  }
  MHP_REQUIRE(false, "unknown propagation model");
  return nullptr;  // unreachable
}

}  // namespace

ClusterStack::ClusterStack(SimRuntime& rt, Channel& channel, NodeId base,
                           const ProtocolConfig& cfg,
                           std::vector<double> rates_bps)
    : rt_(rt),
      channel_(channel),
      cfg_(cfg),
      base_(base),
      rates_(std::move(rates_bps)),
      // §V-B: the head discovers connectivity by probing, which amounts
      // to the channel's interference-free link test.
      topo_(link_topology(channel, rates_.size(), base)) {
  MHP_REQUIRE(!rates_.empty(), "need at least one sensor");
  MHP_REQUIRE(topo_.fully_connected(),
              "cluster not fully connected; adjust deployment");
  // Routing demand: expected packets per duty cycle (at least 1 so every
  // sensor owns a relaying path).
  const double cycle_s = cfg_.cycle_period.to_seconds();
  demand_.reserve(rates_.size());
  for (const double rate : rates_)
    demand_.push_back(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(std::ceil(
               rate * cycle_s / static_cast<double>(cfg_.data_bytes))))));
}

route::ClusterRouteJob ClusterStack::route_job() const {
  route::ClusterRouteJob job;
  job.topo = &topo_;
  job.demand = demand_;
  job.routing = cfg_.routing;
  return job;
}

std::vector<NodeId> ClusterStack::to_channel(std::vector<NodeId> path) const {
  for (NodeId& v : path) v += base_;
  return path;
}

SectorPlan ClusterStack::flat_sector(std::uint64_t cycle) const {
  std::vector<NodeId> members;
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < num_sensors(); ++s) {
    if (plan_->paths(s).empty()) continue;  // dead or orphaned by a repair
    members.push_back(base_ + s);
    paths.push_back(to_channel(plan_->path_for_cycle(s, cycle).hops));
  }
  return make_sector(std::move(members), std::move(paths));
}

const std::vector<SectorPlan>& ClusterStack::plans(std::uint64_t cycle) {
  // path_for_cycle reads the cycle only through cycle mod a window that
  // divides the period.  Past uint64, every cycle is its own phase.
  const bool new_phase = period_ ? cycle % *period_ != plans_cycle_ % *period_
                                 : cycle != plans_cycle_;
  if (rotating_ && new_phase) {
    plans_ = {flat_sector(cycle)};
    plans_cycle_ = cycle;
    ++plan_builds_;
  }
  return plans_;
}

void ClusterStack::build(MinMaxLoadResult routes, std::uint64_t head_stream,
                         std::uint64_t sensor_stream) {
  const std::size_t n = num_sensors();
  plan_ = std::make_unique<RelayPlan>(topo_, std::move(routes));
  truth_ = std::make_unique<ChannelOracle>(channel_, cfg_.oracle_order);
  rotating_ = cfg_.rotate_paths && !cfg_.use_sectors;
  period_ = plan_->rotation_period();

  // Sector plans: the §IV partition's trees, or one flat sector.
  std::vector<int> sector_of(n, 0);
  {
    MHP_SPAN("sectors");
    if (cfg_.use_sectors) {
      MHP_REQUIRE(base_ == 0, "sectors need the cluster at channel base 0");
      partition_ = SectorPartitioner(topo_).partition(*plan_, demand_,
                                                      truth_.get());
      for (std::size_t k = 0; k < partition_->sectors.size(); ++k) {
        const std::vector<NodeId>& members = partition_->sectors[k].sensors;
        std::vector<std::vector<NodeId>> paths;
        for (NodeId s : members) {
          paths.push_back(partition_->tree_path(s, topo_.head()));
          sector_of[s] = static_cast<int>(k);
        }
        plans_.push_back(make_sector(members, std::move(paths)));
      }
    } else {
      plans_.push_back(flat_sector(0));
    }
  }
  probe();

  Rng& root = rt_.root_rng();
  const NodeId head_id = base_ + static_cast<NodeId>(n);
  head_ = std::make_unique<HeadAgent>(head_id, rt_.sim(), channel_,
                                      rt_.uids(), cfg_, oracle_->cached,
                                      *this, root.split(head_stream));
  // Distribution instrumentation: delivery latency at the head, queue
  // depth at every sensor.  Every stack on a runtime shares the two
  // histograms; registry metrics reset in place on begin_window, so
  // these references stay valid for the run.
  MetricsRegistry& m = rt_.metrics();
  head_->set_latency_histogram(&m.histogram(
      metric::kLatencyHistS, 0.0, 20.0 * cfg_.cycle_period.to_seconds(), 64));
  HistogramMetric& queue_hist = m.histogram(
      metric::kQueueDepth, 0.0,
      static_cast<double>(cfg_.queue_capacity + 1), cfg_.queue_capacity + 1);

  sensors_.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    auto agent = std::make_unique<SensorAgent>(
        base_ + s, rt_.sim(), channel_, rt_.uids(), cfg_,
        root.split(sensor_stream + s + 1));
    agent->set_sector(sector_of[s]);
    agent->set_head(head_id);
    agent->set_queue_histogram(&queue_hist);
    agent->start_sampling(rates_[s]);
    sensors_.push_back(std::move(agent));
  }
}

void ClusterStack::probe() {
  std::vector<std::vector<NodeId>> paths;
  for (const SectorPlan& sp : plans_) {
    for (const auto& [s, path] : sp.data_path) paths.push_back(path);
    for (const auto& path : sp.ack_paths) paths.push_back(path);
  }
  // With rotation every unit path may be used.
  if (rotating_)
    for (NodeId s = 0; s < num_sensors(); ++s)
      for (const UnitPath& p : plan_->paths(s))
        paths.push_back(to_channel(p.hops));
  if (oracle_ != nullptr) retired_oracles_.push_back(std::move(oracle_));
  MHP_SPAN("oracle_probe");
  oracle_ = std::make_unique<ProbedOracle>(
      *truth_, transmissions_of_paths(paths), cfg_.oracle_order);
  MHP_SPAN_COUNTER("universe", oracle_->measured.universe().size());
  MHP_SPAN_COUNTER("groups", oracle_->measured.probes());
}

void ClusterStack::replan(NodeId declared, route::RoutingEngine& engine) {
  MHP_REQUIRE(declared >= base_ && declared < base_ + num_sensors(),
              "head declared a node outside its cluster");
  declared_dead_.push_back(declared - base_);
  RouteRepair repair =
      repair_routes(topo_, declared_dead_, demand_, cfg_.routing, &engine);
  plan_ = std::make_unique<RelayPlan>(std::move(repair.plan));
  orphaned_ = repair.orphaned.size();

  // The repaired cluster drains as one sector with fixed paths; re-home
  // every surviving member so it follows sector-0 wake/sleep control.
  rotating_ = false;
  plans_ = {flat_sector(0)};
  for (NodeId s : plans_.front().members) sensors_[s - base_]->set_sector(0);
  probe();
  head_->set_oracle(oracle_->cached);
  head_->plans_changed();
}

void ClusterStack::add_cache_stats(OracleCacheStats& out) const {
  out.add(oracle_->cached);
  for (const auto& retired : retired_oracles_) out.add(retired->cached);
}

std::uint64_t ClusterStack::generated() const {
  std::uint64_t total = 0;
  for (const auto& s : sensors_) total += s->packets_generated();
  return total;
}

ClusterField::ClusterField(ProtocolConfig cfg, const RuntimeOptions& rt_opts,
                           FieldSpans spans)
    : cfg_(std::move(cfg)),
      rt_(cfg_.seed, rt_opts),
      route_workers_(rt_opts.route_workers),
      spans_(spans) {}

void ClusterField::set_up(std::span<const FieldCluster> clusters,
                          std::uint64_t head_stream, Time stagger) {
  rt_.adopt_propagation(make_propagation(cfg_));

  // One Channel per group, nodes concatenated cluster by cluster.
  const std::size_t num_groups =
      std::ranges::max(clusters, {}, &FieldCluster::group).group + 1;
  std::vector<NodeId> base;  // each cluster's first id on its channel
  std::vector<std::vector<Vec2>> positions(num_groups);
  std::vector<std::vector<double>> powers(num_groups);
  for (const FieldCluster& fc : clusters) {
    const std::vector<Vec2>& dep = fc.deployment->positions;
    MHP_REQUIRE(fc.rates_bps.size() == fc.deployment->num_sensors(),
                "one rate per sensor required");
    base.push_back(static_cast<NodeId>(positions[fc.group].size()));
    for (std::size_t i = 0; i < dep.size(); ++i) {
      positions[fc.group].push_back(fc.origin + dep[i]);
      powers[fc.group].push_back(i + 1 == dep.size()
                                     ? RadioParams::kHeadTxPowerW
                                     : RadioParams::kSensorTxPowerW);
    }
  }
  {
    MHP_SPAN("channel");
    for (std::size_t g = 0; g < num_groups; ++g)
      rt_.add_channel(cfg_.radio, std::move(positions[g]),
                      std::move(powers[g]));
    span_channel_counters(rt_.channel_stats());
  }

  // Per-cluster topology and routing demand (sequential: the
  // connectivity predicate probes the shared channels).
  {
    MHP_SPAN("topology");
    for (std::size_t c = 0; c < clusters.size(); ++c)
      stacks_.push_back(std::make_unique<ClusterStack>(
          rt_, rt_.channel(clusters[c].group), base[c], cfg_,
          clusters[c].rates_bps));
  }

  // Every cluster's routing plan in one batch — each solve is a pure
  // function of its job, so fanning out on route_workers threads yields
  // byte-identical plans in cluster order for any worker count.
  std::vector<MinMaxLoadResult> solutions;
  {
    MHP_SPAN("routing");
    std::vector<route::ClusterRouteJob> jobs;
    for (const auto& stack : stacks_) jobs.push_back(stack->route_job());
    solutions = route::solve_clusters(jobs, route_workers_);
  }

  // Sector/ack plans, oracles and agents (sequential: shared uid source
  // and deterministic event order).
  for (std::size_t c = 0; c < stacks_.size(); ++c)
    stacks_[c]->build(std::move(solutions[c]), head_stream + c, c * 1000);

  // When the runtime has a sampler, push the live gauges it watches
  // (sample::) before each tick: the standard counters reach the registry
  // only at the end of a run.
  if (MetricsSampler* sampler = rt_.sampler())
    sampler->add_refresh_hook([this](Time now) {
      std::uint64_t alive = 0;
      double energy = 0.0;
      for (const auto& stack : stacks_)
        for (NodeId s = 0; s < stack->num_sensors(); ++s) {
          if (!stack->sensor(s).dead()) ++alive;
          energy += stack->sensor(s).meter().total_energy_j();
        }
      MetricsRegistry& reg = rt_.metrics();
      reg.gauge(sample::kAliveNodes).set(now, static_cast<double>(alive));
      reg.gauge(sample::kEnergyJ).set(now, energy);
      reg.gauge(sample::kDelivered).set(now, static_cast<double>(delivered()));
      reg.gauge(sample::kGenerated).set(now, static_cast<double>(generated()));
    });

  // Faults are armed before the heads start: a death scripted at a
  // head's start time fires first.
  wire_faults();
  for (std::size_t c = 0; c < stacks_.size(); ++c)
    stacks_[c]->head().start(Time::ms(10) +
                             stagger * static_cast<std::int64_t>(c));
}

void ClusterField::wire_faults() {
  if (!cfg_.faults.empty()) {
    FaultInjector& inj = rt_.install_faults(cfg_.faults);
    inj.set_death_handler([this](const NodeDeath& d) {
      sensor(d.node).fail();
      ledger_.on_death(generated(), delivered());
    });
    for (const auto& d : cfg_.faults.deaths()) {
      SensorAgent& victim = sensor(d.node);  // throws outside the field
      if (d.cause == NodeDeath::Cause::kBattery)
        victim.set_battery(d.battery_j, [this, node = d.node] {
          rt_.faults()->battery_exhausted(node);
        });
    }
    if (!cfg_.faults.degradations().empty())
      for (const auto& stack : stacks_) {
        stack->head().set_fault_injector(rt_.faults());
        for (NodeId s = 0; s < stack->num_sensors(); ++s)
          stack->sensor(s).set_fault_injector(rt_.faults());
      }
    inj.arm();
  }
  // Repair is per cluster: each head detects and re-routes only its own
  // members.
  if (cfg_.recovery.enabled)
    for (const auto& stack : stacks_)
      stack->head().set_replan_handler(
          [this, &cluster = *stack](NodeId declared) {
            MHP_SPAN(spans_.replan);
            cluster.replan(declared, engine_);
            ledger_.on_repair(generated(), delivered());
          });
}

SensorAgent& ClusterField::sensor(NodeId field_id) const {
  std::size_t c = 0;
  while (c < stacks_.size() && field_id >= stacks_[c]->num_sensors())
    field_id -= static_cast<NodeId>(stacks_[c++]->num_sensors());
  MHP_REQUIRE(c < stacks_.size(),
              "fault plan kills a node outside the field");
  return stacks_[c]->sensor(field_id);
}

std::uint64_t ClusterField::generated() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->generated();
  return total;
}

std::uint64_t ClusterField::delivered() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->delivered();
  return total;
}

std::uint64_t ClusterField::plan_builds() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->plan_builds();
  return total;
}

OracleCacheStats ClusterField::cache_stats() const {
  OracleCacheStats total;
  for (const auto& stack : stacks_) stack->add_cache_stats(total);
  return total;
}

void ClusterField::run(Time duration, Time warmup) {
  MHP_REQUIRE(duration > warmup, "duration must exceed warmup");
  Simulator& sim = rt_.sim();
  {
    MHP_SPAN(spans_.warmup);
    sim.run_until(warmup);
  }
  for (const auto& stack : stacks_) {
    stack->head().reset_stats(sim.now());
    for (NodeId s = 0; s < stack->num_sensors(); ++s)
      stack->sensor(s).reset_stats(sim.now());
  }
  rt_.begin_measurement();

  MHP_SPAN(spans_.measured);
  const std::uint64_t events_before = sim.events_executed();
  const ChannelStats channel_before = rt_.channel_stats();
  const std::uint64_t builds_before = plan_builds();
  const OracleCacheStats cache_before = cache_stats();
  sim.run_until(duration);
  const OracleCacheStats cache_after = cache_stats();
  const std::uint64_t hits = cache_after.hits - cache_before.hits;
  const std::uint64_t misses = cache_after.misses - cache_before.misses;
  rt_.metrics().counter(metric::kOracleCacheHit).add(hits);
  rt_.metrics().counter(metric::kOracleCacheMiss).add(misses);
  MHP_SPAN_COUNTER("events", sim.events_executed() - events_before);
  MHP_SPAN_COUNTER("plan_builds", plan_builds() - builds_before);
  span_channel_counters(rt_.channel_stats() - channel_before);
  MHP_SPAN_COUNTER("oracle_hits", hits);
  MHP_SPAN_COUNTER("oracle_misses", misses);
}

void ClusterField::export_nodes() {
  // Channel-local ids collide across channel groups, so per-node series
  // use field-wide ids.
  const Time now = rt_.sim().now();
  std::uint64_t field_id = 0;
  for (const auto& stack : stacks_)
    for (NodeId s = 0; s < stack->num_sensors(); ++s, ++field_id) {
      SensorAgent& agent = stack->sensor(s);
      agent.settle(now);
      rt_.export_node(field_id, agent.meter(), agent.packets_relayed(),
                      agent.frames_sent());
    }
}

FieldRollup ClusterField::roll_up() {
  FieldRollup out;
  // Degradation only when the run could degrade at all, so fault-free
  // reports (keys and metrics snapshot included) stay byte-identical to
  // pre-fault builds.
  if (!cfg_.faults.empty() || cfg_.recovery.enabled) {
    DegradationReport deg;
    for (const auto& stack : stacks_) {
      deg.deaths_detected += stack->head().deaths_detected();
      deg.replans += stack->head().replans();
      deg.orphaned_sensors += stack->orphaned();
    }
    out.degradation = rt_.collect_degradation(std::move(deg), ledger_,
                                              generated(), delivered());
  }
  out.oracle = cache_stats();
  return out;
}

}  // namespace mhp
