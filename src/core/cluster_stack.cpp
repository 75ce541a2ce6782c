#include "core/cluster_stack.hpp"

#include <algorithm>
#include <cmath>

#include "core/route_repair.hpp"
#include "obs/profiler.hpp"
#include "sim/sampler.hpp"
#include "util/assertx.hpp"

namespace mhp {

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
  if (rotating_ && cycle != plans_cycle_) {
    plans_ = {flat_sector(cycle)};
    plans_cycle_ = cycle;
  }
  return plans_;
}

void ClusterStack::build(MinMaxLoadResult routes, std::uint64_t head_stream,
                         std::uint64_t sensor_stream) {
  const std::size_t n = num_sensors();
  plan_ = std::make_unique<RelayPlan>(topo_, std::move(routes));
  truth_ = std::make_unique<ChannelOracle>(channel_, cfg_.oracle_order);
  rotating_ = cfg_.rotate_paths && !cfg_.use_sectors;

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
                                      rt_.uids(), cfg_, scheduling_oracle(),
                                      *this, root.split(head_stream),
                                      &rt_.trace());
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
  oracle_ = std::make_unique<MeasuredOracle>(
      *truth_, transmissions_of_paths(paths), cfg_.oracle_order);
}

const CompatibilityOracle& ClusterStack::scheduling_oracle() {
  if (!cfg_.cache_oracle) return *oracle_;
  if (cache_ != nullptr) retired_caches_.push_back(std::move(cache_));
  // Pair screening is sound here: the measured oracle inherits SINR
  // monotonicity (an interfering pair interferes in every superset).
  cache_ = std::make_unique<CachedOracle>(*oracle_,
                                          CachedOracle::PairScreen::kOn);
  MetricsRegistry& m = rt_.metrics();
  cache_->bind_counters(&m.counter(metric::kOracleCacheHit),
                        &m.counter(metric::kOracleCacheMiss));
  return *cache_;
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
  head_->set_oracle(scheduling_oracle());
  head_->plans_changed();
}

void ClusterStack::reset_stats(Time now) {
  head_->reset_stats(now);
  for (auto& s : sensors_) s->reset_stats(now);
}

void ClusterStack::export_nodes(std::uint64_t field_base) {
  const Time now = rt_.sim().now();
  for (NodeId s = 0; s < num_sensors(); ++s) {
    SensorAgent& agent = *sensors_[s];
    agent.settle(now);
    rt_.export_node(field_base + s, agent.meter(), agent.packets_relayed(),
                    agent.frames_sent());
  }
}

void ClusterStack::add_cache_stats(OracleCacheStats& out) const {
  if (cache_ != nullptr) out.add(*cache_);
  for (const auto& retired : retired_caches_) out.add(*retired);
}

std::uint64_t ClusterStack::generated() const {
  std::uint64_t total = 0;
  for (const auto& s : sensors_) total += s->packets_generated();
  return total;
}

void sample_clusters(SimRuntime& rt,
                     std::span<const std::unique_ptr<ClusterStack>> stacks) {
  MetricsSampler* sp = rt.sampler();
  if (sp == nullptr) return;
  sp->add_refresh_hook([&rt, stacks](Time now) {
    std::uint64_t alive = 0, delivered = 0, generated = 0;
    double energy = 0.0;
    for (const auto& stack : stacks) {
      for (NodeId s = 0; s < stack->num_sensors(); ++s) {
        if (!stack->sensor(s).dead()) ++alive;
        energy += stack->sensor(s).meter().total_energy_j();
      }
      delivered += stack->delivered();
      generated += stack->generated();
    }
    MetricsRegistry& reg = rt.metrics();
    reg.gauge(sample::kAliveNodes).set(now, static_cast<double>(alive));
    reg.gauge(sample::kEnergyJ).set(now, energy);
    reg.gauge(sample::kDelivered).set(now, static_cast<double>(delivered));
    reg.gauge(sample::kGenerated).set(now, static_cast<double>(generated));
  });
}

}  // namespace mhp
