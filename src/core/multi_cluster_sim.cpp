#include "core/multi_cluster_sim.hpp"

#include "core/coloring.hpp"
#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

namespace {

/// `cfg` as every cluster of an `num_clusters`-cluster field runs it:
/// fixed cycle-0 paths and, with token rotation, a drain window of
/// period/K each.  Checks the field's preconditions first.
ProtocolConfig field_config(ProtocolConfig cfg, InterClusterMode mode,
                            std::size_t num_clusters) {
  MHP_REQUIRE(num_clusters > 0, "need at least one cluster");
  MHP_REQUIRE(!cfg.use_sectors,
              "sectors are single-cluster only (use_sectors must be off)");
  MHP_REQUIRE(cfg.faults.degradations().empty(),
              "link-degradation windows are single-cluster only");
  cfg.rotate_paths = false;
  if (mode == InterClusterMode::kToken)
    cfg.max_drain_window = Time::ns(cfg.cycle_period.nanos() /
                                    static_cast<std::int64_t>(num_clusters));
  return cfg;
}

}  // namespace

MultiClusterSimulation::MultiClusterSimulation(
    std::vector<ClusterSpec> specs, ProtocolConfig cfg, InterClusterMode mode,
    double rate_bps, double interference_range, const RuntimeOptions& rt_opts)
    : field_(field_config(std::move(cfg), mode, specs.size()), rt_opts,
             {"mc/warmup", "mc/measured", "mc/replan"}) {
  MHP_SPAN("mc/setup");
  const std::size_t num_clusters = specs.size();

  // Channel groups.  kColored: colour the cluster adjacency graph; each
  // colour is an isolated channel.  Otherwise everyone shares channel 0.
  std::vector<int> group_of(num_clusters, 0);
  if (mode == InterClusterMode::kColored) {
    Graph adjacency(num_clusters);
    for (NodeId a = 0; a < num_clusters; ++a)
      for (NodeId b = a + 1; b < num_clusters; ++b) {
        const Vec2 ha = specs[a].origin + specs[a].deployment.head_pos();
        const Vec2 hb = specs[b].origin + specs[b].deployment.head_pos();
        if (distance(ha, hb) <= interference_range) adjacency.add_edge(a, b);
      }
    group_of = six_color_planar(adjacency);
    MHP_ENSURE(proper_coloring(adjacency, group_of), "colouring failed");
    channels_used_ = num_colors(group_of);
  }
  std::vector<FieldCluster> clusters;
  for (std::size_t c = 0; c < num_clusters; ++c)
    clusters.push_back(
        {&specs[c].deployment, specs[c].origin,
         static_cast<std::size_t>(group_of[c]),
         std::vector<double>(specs[c].deployment.num_sensors(), rate_bps)});
  // Token rotation staggers the starts; otherwise they are simultaneous
  // (the worst case for the shared channel).
  field_.set_up(clusters, /*head_stream=*/1000,
                mode == InterClusterMode::kToken
                    ? field_.config().max_drain_window
                    : Time{});
}

MultiClusterReport MultiClusterSimulation::run(Time duration, Time warmup) {
  field_.run(duration, warmup);

  MHP_SPAN("mc/collect");
  MultiClusterReport rep;
  rep.channels_used = channels_used_;
  field_.export_nodes();
  const auto ratio = [](std::uint64_t delivered, std::uint64_t generated) {
    return generated == 0 ? 1.0
                          : static_cast<double>(delivered) /
                                static_cast<double>(generated);
  };
  std::uint64_t total_bytes = 0;
  double total_active = 0.0;
  std::size_t total_sensors = 0;
  for (std::size_t c = 0; c < field_.size(); ++c) {
    ClusterStack& stack = field_.stack(c);
    double active = 0.0;
    for (NodeId s = 0; s < stack.num_sensors(); ++s)
      active += stack.sensor(s).meter().active_fraction();
    rep.delivery_ratio.push_back(ratio(stack.delivered(), stack.generated()));
    rep.mean_active.push_back(active /
                              static_cast<double>(stack.num_sensors()));
    total_bytes += stack.head().bytes_received();
    total_active += active;
    total_sensors += stack.num_sensors();
  }
  const std::uint64_t total_generated = field_.generated();
  const std::uint64_t total_delivered = field_.delivered();
  rep.aggregate_delivery = ratio(total_delivered, total_generated);
  rep.aggregate_throughput_bps =
      static_cast<double>(total_bytes) / (duration - warmup).to_seconds();

  // Field-wide totals via the shared registry.
  MetricsRegistry& m = runtime().metrics();
  m.counter(metric::kPacketsGenerated).add(total_generated);
  m.counter(metric::kPacketsDelivered).add(total_delivered);
  m.counter(metric::kBytesDelivered).add(total_bytes);
  m.counter("clusters").add(field_.size());
  m.gauge(metric::kMeanActiveFraction)
      .set(field_.runtime().sim().now(),
           total_active / static_cast<double>(total_sensors));

  static_cast<FieldRollup&>(rep) = field_.roll_up();
  rep.totals = field_.runtime().collect_run_stats(
      duration - warmup, field_.config().data_bytes);
  return rep;
}

}  // namespace mhp
