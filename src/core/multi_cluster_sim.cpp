#include "core/multi_cluster_sim.hpp"

#include <algorithm>
#include <cmath>

#include "core/ack_collection.hpp"
#include "core/coloring.hpp"
#include "core/route_repair.hpp"
#include "obs/profiler.hpp"
#include "sim/sampler.hpp"
#include "util/assertx.hpp"

namespace mhp {

const char* to_string(InterClusterMode mode) {
  switch (mode) {
    case InterClusterMode::kShared:
      return "shared";
    case InterClusterMode::kColored:
      return "colored";
    case InterClusterMode::kToken:
      return "token";
  }
  return "?";
}

MultiClusterSimulation::MultiClusterSimulation(
    std::vector<ClusterSpec> clusters, ProtocolConfig cfg,
    InterClusterMode mode, double rate_bps, double interference_range,
    const RuntimeOptions& rt_opts)
    : cfg_(cfg), mode_(mode), rt_(cfg.seed, rt_opts),
      route_workers_(rt_opts.route_workers), rate_bps_(rate_bps) {
  MHP_REQUIRE(!clusters.empty(), "need at least one cluster");
  build(std::move(clusters), rate_bps, interference_range);
}

void MultiClusterSimulation::build(std::vector<ClusterSpec> specs,
                                   double rate_bps,
                                   double interference_range) {
  MHP_SPAN("mc/setup");
  const std::size_t num_clusters = specs.size();
  rt_.adopt_propagation(std::make_unique<TwoRayGround>());

  // Channel groups.  kColored: colour the cluster adjacency graph; each
  // colour is an isolated channel.  Otherwise everyone shares channel 0.
  std::vector<int> group_of(num_clusters, 0);
  if (mode_ == InterClusterMode::kColored) {
    Graph adjacency(num_clusters);
    for (NodeId a = 0; a < num_clusters; ++a)
      for (NodeId b = a + 1; b < num_clusters; ++b) {
        const Vec2 ha = specs[a].origin + specs[a].deployment.head_pos();
        const Vec2 hb = specs[b].origin + specs[b].deployment.head_pos();
        if (distance(ha, hb) <= interference_range) adjacency.add_edge(a, b);
      }
    const auto colors = six_color_planar(adjacency);
    MHP_ENSURE(proper_coloring(adjacency, colors), "colouring failed");
    group_of = colors;
    channels_used_ = num_colors(colors);
  } else {
    channels_used_ = 1;
  }
  const int num_groups =
      1 + *std::max_element(group_of.begin(), group_of.end());

  // One Channel per group, nodes concatenated cluster by cluster.
  struct Placement {
    int group;
    NodeId base;  // first global id of this cluster on its channel
  };
  std::vector<Placement> placement(num_clusters);
  std::vector<std::vector<Vec2>> positions(num_groups);
  std::vector<std::vector<double>> powers(num_groups);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const int g = group_of[c];
    placement[c] = {g, static_cast<NodeId>(positions[g].size())};
    const auto& dep = specs[c].deployment;
    for (std::size_t i = 0; i < dep.positions.size(); ++i) {
      positions[g].push_back(specs[c].origin + dep.positions[i]);
      powers[g].push_back(i + 1 == dep.positions.size()
                              ? RadioParams::kHeadTxPowerW
                              : RadioParams::kSensorTxPowerW);
    }
  }
  for (int g = 0; g < num_groups; ++g)
    rt_.add_channel(cfg_.radio, positions[static_cast<std::size_t>(g)],
                    powers[static_cast<std::size_t>(g)]);

  // Token rotation: each head drains in its own window of the cycle.
  // (head_cfg_ is a member: the head agents hold a reference to it.)
  head_cfg_ = cfg_;
  if (mode_ == InterClusterMode::kToken)
    head_cfg_.max_drain_window = Time::ns(cfg_.cycle_period.nanos() /
                                          static_cast<std::int64_t>(
                                              num_clusters));

  // Field-wide distributions: one latency histogram shared by every
  // head, one queue-depth histogram shared by every sensor.
  MetricsRegistry& m = rt_.metrics();
  HistogramMetric& latency_hist = m.histogram(
      metric::kLatencyHistS, 0.0, 20.0 * cfg_.cycle_period.to_seconds(), 64);
  HistogramMetric& queue_hist = m.histogram(
      metric::kQueueDepth, 0.0,
      static_cast<double>(cfg_.queue_capacity + 1), cfg_.queue_capacity + 1);

  Rng& root = rt_.root_rng();
  clusters_.resize(num_clusters);

  // Pass 1: per-cluster topology and routing demand (sequential — the
  // connectivity predicate probes the shared channels).
  {
    MHP_SPAN("topology");
    for (std::size_t c = 0; c < num_clusters; ++c) {
      ClusterRt& rt = clusters_[c];
      Channel& channel =
          rt_.channel(static_cast<std::size_t>(placement[c].group));
      const std::size_t n = specs[c].deployment.num_sensors();
      const NodeId base = placement[c].base;
      rt.num_sensors = n;
      rt.base = base;
      rt.head = base + static_cast<NodeId>(n);

      // Local topology over this cluster's own nodes.
      rt.topo = std::make_unique<ClusterTopology>(
          link_topology(channel, n, base));
      MHP_REQUIRE(rt.topo->fully_connected(), "cluster not fully connected");

      const double cycle_s = cfg_.cycle_period.to_seconds();
      rt.demand.assign(n, 0);
      for (auto& d : rt.demand)
        d = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(std::llround(std::ceil(
                   rate_bps * cycle_s /
                   static_cast<double>(cfg_.data_bytes)))));
    }
  }

  // Pass 2: solve every cluster's balanced routing plan in one batch —
  // each solve is a pure function of its (topo, demand) job, so fanning
  // out on route_workers threads yields byte-identical plans in cluster
  // order regardless of worker count.
  {
    MHP_SPAN("routing");
    std::vector<route::ClusterRouteJob> jobs(num_clusters);
    for (std::size_t c = 0; c < num_clusters; ++c) {
      jobs[c].topo = clusters_[c].topo.get();
      jobs[c].demand = clusters_[c].demand;
    }
    std::vector<MinMaxLoadResult> solutions =
        route::solve_clusters(jobs, route_workers_);
    for (std::size_t c = 0; c < num_clusters; ++c)
      clusters_[c].plan = std::make_unique<RelayPlan>(
          *clusters_[c].topo, std::move(solutions[c]));
  }

  // Pass 3: sector/ack plans, oracles and agents (sequential: shared
  // uid source and deterministic rng-split order).
  {
    MHP_SPAN("sectors_and_agents");
    for (std::size_t c = 0; c < num_clusters; ++c) {
      ClusterRt& rt = clusters_[c];
      Channel& channel =
          rt_.channel(static_cast<std::size_t>(placement[c].group));
      const std::size_t n = rt.num_sensors;
      const NodeId base = rt.base;

      // Global (channel-id) paths: the local head is id n, so adding the
      // base translates sensors and head alike.
      auto globalize = [base](std::vector<NodeId> path) {
        for (NodeId& v : path) v = base + v;
        return path;
      };
      SectorPlan sp;
      sp.members.resize(n);
      std::vector<std::vector<NodeId>> candidates;
      for (NodeId s = 0; s < n; ++s) {
        sp.members[s] = base + s;
        auto path = globalize(rt.plan->path_for_cycle(s, 0).hops);
        sp.data_path[base + s] = path;
        candidates.push_back(std::move(path));
      }
      const AckPlan ack = plan_ack_cover(sp.members, candidates);
      MHP_ENSURE(ack.covers_all, "ack cover incomplete");
      sp.ack_paths = ack.poll_paths;

      std::vector<std::vector<NodeId>> all_paths = candidates;
      for (const auto& p : sp.ack_paths) all_paths.push_back(p);
      rt.truth = std::make_unique<ChannelOracle>(channel, cfg_.oracle_order);
      rt.oracle = std::make_unique<MeasuredOracle>(
          *rt.truth, transmissions_of_paths(all_paths), cfg_.oracle_order);

      rt.head_agent = std::make_unique<HeadAgent>(
          rt.head, rt_.sim(), channel, rt_.uids(), head_cfg_,
          scheduling_oracle(rt), std::vector<SectorPlan>{sp},
          root.split(1000 + c));
      rt.head_agent->set_latency_histogram(&latency_hist);
      rt.sensors.reserve(n);
      for (NodeId s = 0; s < n; ++s) {
        auto agent = std::make_unique<SensorAgent>(
            base + s, rt_.sim(), channel, rt_.uids(), cfg_,
            root.split(c * 1000 + s + 1));
        agent->set_head(rt.head);
        agent->set_queue_histogram(&queue_hist);
        agent->start_sampling(rate_bps);
        rt.sensors.push_back(std::move(agent));
      }

      // Staggered starts for token rotation; simultaneous otherwise (the
      // worst case for the shared channel).
      Time start = Time::ms(10);
      if (mode_ == InterClusterMode::kToken)
        start += Time::ns(static_cast<std::int64_t>(c) *
                          head_cfg_.max_drain_window.nanos());
      rt.head_agent->start(start);
    }
  }

  // Fault injection: deaths keyed by field-wide sensor id.  Repair is
  // per cluster — each head detects and re-routes only its own members.
  if (!cfg_.faults.empty()) {
    MHP_REQUIRE(cfg_.faults.degradations().empty(),
                "link-degradation windows are single-cluster only");
    FaultInjector& inj = rt_.install_faults(cfg_.faults);
    inj.set_death_handler(
        [this](const NodeDeath& d) { on_node_death(d); });
    for (const auto& d : cfg_.faults.deaths())
      if (d.cause == NodeDeath::Cause::kBattery)
        sensor_by_field_id(d.node).set_battery(
            d.battery_j,
            [this, node = d.node] { rt_.faults()->battery_exhausted(node); });
    inj.arm();
  }
  if (cfg_.recovery.enabled)
    for (std::size_t c = 0; c < clusters_.size(); ++c)
      clusters_[c].head_agent->set_replan_handler(
          [this, c](NodeId declared) { replan_cluster(c, declared); });

  // Live trajectory for the sampler, when one was requested: standard
  // counters are only mirrored into the registry at end of run, so push
  // the watched gauges from agent state before each tick.
  if (MetricsSampler* sp = rt_.sampler(); sp != nullptr) {
    sp->add_refresh_hook([this](Time now) {
      MetricsRegistry& reg = rt_.metrics();
      std::uint64_t alive = 0;
      double energy = 0.0;
      for (const auto& rt : clusters_)
        for (const auto& s : rt.sensors) {
          if (!s->dead()) ++alive;
          energy += s->meter().total_energy_j();
        }
      reg.gauge(sample::kAliveNodes).set(now, static_cast<double>(alive));
      reg.gauge(sample::kEnergyJ).set(now, energy);
      reg.gauge(sample::kDelivered)
          .set(now, static_cast<double>(sum_delivered()));
      reg.gauge(sample::kGenerated)
          .set(now, static_cast<double>(sum_generated()));
    });
  }
}

SensorAgent& MultiClusterSimulation::sensor_by_field_id(NodeId field_id) {
  std::uint64_t base = 0;
  for (auto& rt : clusters_) {
    if (field_id < base + rt.num_sensors)
      return *rt.sensors[field_id - base];
    base += rt.num_sensors;
  }
  MHP_REQUIRE(false, "fault plan kills a node outside the field");
  return *clusters_.front().sensors.front();  // unreachable
}

std::uint64_t MultiClusterSimulation::sum_generated() const {
  std::uint64_t total = 0;
  for (const auto& rt : clusters_)
    for (const auto& s : rt.sensors) total += s->packets_generated();
  return total;
}

std::uint64_t MultiClusterSimulation::sum_delivered() const {
  std::uint64_t total = 0;
  for (const auto& rt : clusters_)
    total += rt.head_agent->packets_received();
  return total;
}

const CompatibilityOracle& MultiClusterSimulation::scheduling_oracle(
    ClusterRt& rt) {
  if (!cfg_.cache_oracle) return *rt.oracle;
  if (rt.cached) rt.retired_caches.push_back(std::move(rt.cached));
  // Pair screening is sound here: the measured oracle inherits SINR
  // monotonicity (an interfering pair interferes in every superset).
  rt.cached = std::make_unique<CachedOracle>(
      *rt.oracle, CachedOracle::PairScreen::kOn);
  MetricsRegistry& m = rt_.metrics();
  rt.cached->bind_counters(&m.counter(metric::kOracleCacheHit),
                           &m.counter(metric::kOracleCacheMiss));
  return *rt.cached;
}

void MultiClusterSimulation::on_node_death(const NodeDeath& death) {
  sensor_by_field_id(death.node).fail();
  if (!have_first_death_) {
    have_first_death_ = true;
    death_gen_ = sum_generated();
    death_del_ = sum_delivered();
    repair_gen_ = death_gen_;
    repair_del_ = death_del_;
  }
}

void MultiClusterSimulation::replan_cluster(std::size_t c, NodeId declared) {
  MHP_SPAN("mc/replan");
  ClusterRt& rt = clusters_[c];
  MHP_REQUIRE(declared >= rt.base && declared < rt.base + rt.num_sensors,
              "head declared a node outside its cluster");
  rt.declared_dead.push_back(declared - rt.base);
  const RelayPlan* hint =
      rt.repair_plan ? rt.repair_plan.get() : rt.plan.get();
  RouteRepair repair = repair_routes(*rt.topo, rt.declared_dead, rt.demand,
                                     cfg_.routing, &engine_, hint);

  const NodeId base = rt.base;
  auto globalize = [base](std::vector<NodeId> path) {
    for (NodeId& v : path) v = base + v;
    return path;
  };
  SectorPlan sp;
  std::vector<std::vector<NodeId>> probe_paths;
  for (NodeId s : repair.sectors.front().members) {
    sp.members.push_back(base + s);
    auto path = globalize(repair.sectors.front().data_path.at(s));
    sp.data_path[base + s] = path;
    probe_paths.push_back(std::move(path));
  }
  for (const auto& p : repair.sectors.front().ack_paths) {
    sp.ack_paths.push_back(globalize(p));
    probe_paths.push_back(sp.ack_paths.back());
  }

  rt.retired_oracles.push_back(std::move(rt.oracle));
  rt.oracle = std::make_unique<MeasuredOracle>(
      *rt.truth, transmissions_of_paths(probe_paths), cfg_.oracle_order);
  rt.head_agent->set_oracle(scheduling_oracle(rt));
  rt.head_agent->replace_plans({std::move(sp)});
  rt.repair_plan = std::make_unique<RelayPlan>(std::move(repair.plan));
  rt.last_orphaned = repair.orphaned.size();
  repair_gen_ = sum_generated();
  repair_del_ = sum_delivered();
}

MultiClusterReport MultiClusterSimulation::run(Time duration, Time warmup) {
  MHP_REQUIRE(duration > warmup, "duration must exceed warmup");
  Simulator& sim = rt_.sim();
  {
    MHP_SPAN("mc/warmup");
    sim.run_until(warmup);
  }
  for (auto& rt : clusters_) {
    rt.head_agent->reset_stats(sim.now());
    for (auto& s : rt.sensors) s->reset_stats(sim.now());
  }
  rt_.begin_measurement();
  {
    MHP_SPAN("mc/measured");
    const std::uint64_t events_before = sim.events_executed();
    sim.run_until(duration);
    MHP_SPAN_COUNTER("events", sim.events_executed() - events_before);
    MHP_SPAN_COUNTER("oracle_hits",
                     rt_.metrics().counter(metric::kOracleCacheHit).value());
    MHP_SPAN_COUNTER("oracle_misses",
                     rt_.metrics().counter(metric::kOracleCacheMiss).value());
  }

  MHP_SPAN("mc/collect");
  MultiClusterReport rep;
  rep.channels_used = channels_used_;
  std::uint64_t total_generated = 0, total_delivered = 0, total_bytes = 0;
  double total_active = 0.0;
  std::size_t total_sensors = 0;
  MetricsRegistry& m = rt_.metrics();
  // Channel-local ids collide across colour groups, so per-node series
  // use field-wide ids: sensors numbered consecutively cluster by cluster.
  std::uint64_t field_base = 0;
  for (auto& rt : clusters_) {
    std::uint64_t generated = 0;
    double active = 0.0;
    for (std::size_t i = 0; i < rt.sensors.size(); ++i) {
      auto& s = rt.sensors[i];
      s->settle(sim.now());
      generated += s->packets_generated();
      active += s->meter().active_fraction();
      const std::uint64_t id = field_base + i;
      m.counter(node_metric(metric::kNodeRelayed, id))
          .add(s->packets_relayed());
      m.counter(node_metric(metric::kNodeFramesTx, id))
          .add(s->frames_sent());
      m.gauge(node_metric(metric::kNodeEnergyJ, id))
          .set(sim.now(), s->meter().total_energy_j());
      m.gauge(node_metric(metric::kNodeAwakeS, id))
          .set(sim.now(), (s->meter().total_time() -
                           s->meter().time_in(RadioState::kSleep))
                              .to_seconds());
    }
    field_base += rt.sensors.size();
    const std::uint64_t delivered = rt.head_agent->packets_received();
    rep.delivery_ratio.push_back(
        generated == 0 ? 1.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(generated));
    rep.mean_active.push_back(active /
                              static_cast<double>(rt.sensors.size()));
    total_generated += generated;
    total_delivered += delivered;
    total_bytes += rt.head_agent->bytes_received();
    total_active += active;
    total_sensors += rt.sensors.size();
  }
  rep.aggregate_delivery =
      total_generated == 0 ? 1.0
                           : static_cast<double>(total_delivered) /
                                 static_cast<double>(total_generated);
  rep.aggregate_throughput_bps =
      static_cast<double>(total_bytes) / (duration - warmup).to_seconds();

  // Field-wide totals via the shared registry.
  m.counter(metric::kPacketsGenerated).add(total_generated);
  m.counter(metric::kPacketsDelivered).add(total_delivered);
  m.counter(metric::kBytesDelivered).add(total_bytes);
  m.counter("clusters").add(clusters_.size());
  m.gauge(metric::kMeanActiveFraction)
      .set(sim.now(), total_active / static_cast<double>(total_sensors));

  // Degradation accounting — only when faults could occur, so fault-free
  // reports stay byte-identical to pre-fault builds.
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
    for (const auto& rt : clusters_) {
      deg.deaths_detected += rt.head_agent->deaths_detected();
      deg.replans += rt.head_agent->replans();
      deg.orphaned_sensors += rt.last_orphaned;
    }
    if (have_first_death_) {
      deg.delivery_before = ratio(death_del_, death_gen_);
      deg.delivery_after = ratio(sat(sum_delivered(), repair_del_),
                                 sat(sum_generated(), repair_gen_));
    } else {
      deg.delivery_before = ratio(total_delivered, total_generated);
      deg.delivery_after = deg.delivery_before;
    }
    rep.degradation = deg;
    m.counter("fault.deaths").add(deg.deaths);
    m.counter("fault.deaths_detected").add(deg.deaths_detected);
    m.counter("fault.replans").add(deg.replans);
    m.counter("fault.orphaned_sensors").add(deg.orphaned_sensors);
  }

  if (cfg_.cache_oracle) {
    OracleCacheStats oracle;
    for (const auto& rt : clusters_) {
      if (rt.cached != nullptr) oracle.add(*rt.cached);
      for (const auto& retired : rt.retired_caches) oracle.add(*retired);
    }
    rep.oracle = oracle;
  }

  rep.totals = rt_.collect_run_stats(duration - warmup, cfg_.data_bytes);
  return rep;
}

}  // namespace mhp
