#include "core/multi_cluster_sim.hpp"

#include <algorithm>

#include "core/coloring.hpp"
#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

MultiClusterSimulation::MultiClusterSimulation(
    std::vector<ClusterSpec> specs, ProtocolConfig cfg, InterClusterMode mode,
    double rate_bps, double interference_range, const RuntimeOptions& rt_opts)
    : cfg_(std::move(cfg)), mode_(mode), rt_(cfg_.seed, rt_opts) {
  MHP_REQUIRE(!specs.empty(), "need at least one cluster");
  MHP_REQUIRE(!cfg_.use_sectors,
              "sectors are single-cluster only (use_sectors must be off)");
  MHP_SPAN("mc/setup");
  const std::size_t num_clusters = specs.size();
  rt_.adopt_propagation(make_propagation(cfg_));

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
  }
  const int num_groups =
      1 + *std::max_element(group_of.begin(), group_of.end());

  // One Channel per group, nodes concatenated cluster by cluster.
  std::vector<NodeId> base(num_clusters);  // cluster's first id on its channel
  std::vector<std::vector<Vec2>> positions(num_groups);
  std::vector<std::vector<double>> powers(num_groups);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const int g = group_of[c];
    base[c] = static_cast<NodeId>(positions[g].size());
    const auto& dep = specs[c].deployment;
    for (std::size_t i = 0; i < dep.positions.size(); ++i) {
      positions[g].push_back(specs[c].origin + dep.positions[i]);
      powers[g].push_back(i + 1 == dep.positions.size()
                              ? RadioParams::kHeadTxPowerW
                              : RadioParams::kSensorTxPowerW);
    }
  }
  {
    MHP_SPAN("channel");
    for (int g = 0; g < num_groups; ++g)
      rt_.add_channel(cfg_.radio,
                      std::move(positions[static_cast<std::size_t>(g)]),
                      std::move(powers[static_cast<std::size_t>(g)]));
    span_channel_counters(rt_.channel_stats());
  }

  // Heads poll fixed cycle-0 paths; with token rotation each drains in
  // its own window of the cycle.
  stack_cfg_ = cfg_;
  stack_cfg_.rotate_paths = false;
  if (mode_ == InterClusterMode::kToken)
    stack_cfg_.max_drain_window = Time::ns(
        cfg_.cycle_period.nanos() / static_cast<std::int64_t>(num_clusters));

  // Per-cluster topology and routing demand (sequential: the
  // connectivity predicate probes the shared channels).
  {
    MHP_SPAN("topology");
    for (std::size_t c = 0; c < num_clusters; ++c)
      stacks_.push_back(std::make_unique<ClusterStack>(
          rt_, rt_.channel(static_cast<std::size_t>(group_of[c])), base[c],
          stack_cfg_,
          std::vector<double>(specs[c].deployment.num_sensors(), rate_bps)));
  }

  // Solve every cluster's routing plan in one batch — each solve is a
  // pure function of its job, so fanning out on route_workers threads
  // yields byte-identical plans in cluster order for any worker count.
  std::vector<MinMaxLoadResult> solutions;
  {
    MHP_SPAN("routing");
    std::vector<route::ClusterRouteJob> jobs;
    for (const auto& stack : stacks_) jobs.push_back(stack->route_job());
    solutions = route::solve_clusters(jobs, rt_opts.route_workers);
  }

  // Sector/ack plans, oracles and agents (sequential: shared uid source
  // and deterministic event order).  Token rotation staggers the starts;
  // otherwise they are simultaneous (the worst case for the shared
  // channel).
  {
    MHP_SPAN("sectors_and_agents");
    for (std::size_t c = 0; c < num_clusters; ++c) {
      stacks_[c]->build(std::move(solutions[c]), 1000 + c, c * 1000);
      Time start = Time::ms(10);
      if (mode_ == InterClusterMode::kToken)
        start += Time::ns(static_cast<std::int64_t>(c) *
                          stack_cfg_.max_drain_window.nanos());
      stacks_[c]->head().start(start);
    }
  }

  // Fault injection: deaths keyed by field-wide sensor id.  Repair is
  // per cluster — each head detects and re-routes only its own members.
  if (!cfg_.faults.empty()) {
    MHP_REQUIRE(cfg_.faults.degradations().empty(),
                "link-degradation windows are single-cluster only");
    FaultInjector& inj = rt_.install_faults(cfg_.faults);
    inj.set_death_handler([this](const NodeDeath& d) {
      sensor_by_field_id(d.node).fail();
      ledger_.on_death(sum_generated(), sum_delivered());
    });
    for (const auto& d : cfg_.faults.deaths())
      if (d.cause == NodeDeath::Cause::kBattery)
        sensor_by_field_id(d.node).set_battery(
            d.battery_j,
            [this, node = d.node] { rt_.faults()->battery_exhausted(node); });
    inj.arm();
  }
  if (cfg_.recovery.enabled)
    for (auto& stack : stacks_)
      stack->head().set_replan_handler(
          [this, &cluster = *stack](NodeId declared) {
            MHP_SPAN("mc/replan");
            cluster.replan(declared, engine_);
            ledger_.on_repair(sum_generated(), sum_delivered());
          });
  sample_clusters(rt_, stacks_);
}

SensorAgent& MultiClusterSimulation::sensor_by_field_id(NodeId field_id) {
  std::uint64_t base = 0;
  for (auto& stack : stacks_) {
    if (field_id < base + stack->num_sensors())
      return stack->sensor(static_cast<NodeId>(field_id - base));
    base += stack->num_sensors();
  }
  MHP_REQUIRE(false, "fault plan kills a node outside the field");
  return stacks_.front()->sensor(0);  // unreachable
}

std::uint64_t MultiClusterSimulation::sum_generated() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->generated();
  return total;
}

std::uint64_t MultiClusterSimulation::sum_delivered() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->delivered();
  return total;
}

MultiClusterReport MultiClusterSimulation::run(Time duration, Time warmup) {
  MHP_REQUIRE(duration > warmup, "duration must exceed warmup");
  Simulator& sim = rt_.sim();
  {
    MHP_SPAN("mc/warmup");
    sim.run_until(warmup);
  }
  for (auto& stack : stacks_) stack->reset_stats(sim.now());
  rt_.begin_measurement();
  {
    MHP_SPAN("mc/measured");
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
  for (auto& stack : stacks_) {
    stack->export_nodes(field_base);
    field_base += stack->num_sensors();
    const std::uint64_t generated = stack->generated();
    double active = 0.0;
    for (NodeId s = 0; s < stack->num_sensors(); ++s)
      active += stack->sensor(s).meter().active_fraction();
    const std::uint64_t delivered = stack->delivered();
    rep.delivery_ratio.push_back(
        generated == 0 ? 1.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(generated));
    rep.mean_active.push_back(active /
                              static_cast<double>(stack->num_sensors()));
    total_generated += generated;
    total_delivered += delivered;
    total_bytes += stack->head().bytes_received();
    total_active += active;
    total_sensors += stack->num_sensors();
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
  m.counter("clusters").add(stacks_.size());
  m.gauge(metric::kMeanActiveFraction)
      .set(sim.now(), total_active / static_cast<double>(total_sensors));

  // Degradation accounting — only when faults could occur, so fault-free
  // reports stay byte-identical to pre-fault builds.
  if (!cfg_.faults.empty() || cfg_.recovery.enabled) {
    DegradationReport deg;
    for (const auto& stack : stacks_) {
      deg.deaths_detected += stack->head().deaths_detected();
      deg.replans += stack->head().replans();
      deg.orphaned_sensors += stack->orphaned();
    }
    rep.degradation = rt_.collect_degradation(std::move(deg), ledger_,
                                              total_generated,
                                              total_delivered);
  }

  if (cfg_.cache_oracle) {
    OracleCacheStats oracle;
    for (const auto& stack : stacks_) stack->add_cache_stats(oracle);
    rep.oracle = oracle;
  }

  rep.totals = rt_.collect_run_stats(duration - warmup, cfg_.data_bytes);
  return rep;
}

}  // namespace mhp
