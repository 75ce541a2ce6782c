#include "obs/report_json.hpp"

#include <fstream>
#include <iostream>

#include "baseline/smac_simulation.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/polling_simulation.hpp"

namespace mhp::obs {

namespace {

/// Regroup every "base{node=N}" series of `snap` under one object:
/// {"node.energy_j": {"0": 1.2, "1": 0.9, ...}, ...}.  Keys are node ids
/// as strings (JSON object keys must be strings).  Keys drawn from a
/// std::map are unique, so they are appended without a duplicate scan.
Json per_node_json(const MetricsSnapshot& snap) {
  Json out = Json::object();
  auto add_series = [&out](const std::string& base, const auto& by_node) {
    if (by_node.empty()) return;
    Json series = Json::object();
    for (const auto& [node, value] : by_node)
      series.append(std::to_string(node), Json(value));
    out.set(base, std::move(series));
  };
  for (const char* base :
       {metric::kNodeEnergyJ, metric::kNodeAwakeS, metric::kNodeRelayed,
        metric::kNodeFramesTx}) {
    add_series(base, snap.labeled_counters(base));
    add_series(base, snap.labeled_gauges(base));
  }
  return out;
}

}  // namespace

Json to_json(const MetricsSnapshot& snap) {
  Json counters = Json::object();
  for (const auto& [name, value] : snap.counters)
    counters.append(name, Json(value));

  Json gauges = Json::object();
  for (const auto& [name, g] : snap.gauges)
    gauges.append(name, Json::object()
                            .set("last", Json(g.last))
                            .set("mean", Json(g.mean)));

  Json histograms = Json::object();
  for (const auto& [name, h] : snap.histograms) {
    Json entry = Json::object()
                     .set("count", Json(h.count))
                     .set("mean", Json(h.mean))
                     .set("min", Json(h.min))
                     .set("max", Json(h.max))
                     .set("p50", Json(h.p50))
                     .set("p95", Json(h.p95))
                     .set("p99", Json(h.p99));
    // Only when samples were actually rejected, so healthy reports keep
    // their exact pre-existing shape.
    if (h.dropped > 0) entry.set("dropped", Json(h.dropped));
    histograms.append(name, std::move(entry));
  }

  return Json::object()
      .set("at_s", Json(snap.at.to_seconds()))
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("histograms", std::move(histograms))
      .set("per_node", per_node_json(snap));
}

Json to_json(const RunStats& stats) {
  return Json::object()
      .set("measured_seconds", Json(stats.measured_seconds))
      .set("offered_bps", Json(stats.offered_bps))
      .set("throughput_bps", Json(stats.throughput_bps))
      .set("delivery_ratio", Json(stats.delivery_ratio))
      .set("packets_generated", Json(stats.packets_generated))
      .set("packets_delivered", Json(stats.packets_delivered))
      .set("mean_active_fraction", Json(stats.mean_active_fraction))
      .set("mean_latency_s", Json(stats.mean_latency_s))
      .set("latency_p50_s", Json(stats.latency_p50_s))
      .set("latency_p95_s", Json(stats.latency_p95_s))
      .set("latency_p99_s", Json(stats.latency_p99_s))
      .set("queue_depth_p50", Json(stats.queue_depth_p50))
      .set("queue_depth_p95", Json(stats.queue_depth_p95))
      .set("queue_depth_p99", Json(stats.queue_depth_p99))
      .set("run", Json::object()
                      .set("wall_seconds", Json(stats.wall_seconds))
                      .set("events_processed", Json(stats.events_processed))
                      .set("events_per_sec", Json(stats.events_per_sec)))
      .set("metrics", to_json(stats.metrics));
}

Json to_json(const OracleCacheStats& oracle) {
  return Json::object()
      .set("hits", Json(oracle.hits))
      .set("misses", Json(oracle.misses))
      .set("screened", Json(oracle.screened))
      .set("entries", Json(oracle.entries))
      .set("hit_rate", Json(oracle.hit_rate()));
}

Json to_json(const DegradationReport& deg) {
  Json dead = Json::array();
  for (const NodeId node : deg.dead_nodes) dead.push_back(Json(node));
  return Json::object()
      .set("deaths", Json(deg.deaths))
      .set("deaths_detected", Json(deg.deaths_detected))
      .set("replans", Json(deg.replans))
      .set("orphaned_sensors", Json(deg.orphaned_sensors))
      .set("dead_nodes", std::move(dead))
      .set("delivery_before", Json(deg.delivery_before))
      .set("delivery_after", Json(deg.delivery_after));
}

Json to_json(const SimulationReport& report) {
  Json body = to_json(static_cast<const RunStats&>(report));
  body.set("packets_lost", Json(report.packets_lost))
      .set("max_active_fraction", Json(report.max_active_fraction))
      .set("mean_sensor_power_w", Json(report.mean_sensor_power_w))
      .set("max_sensor_power_w", Json(report.max_sensor_power_w))
      .set("mean_duty_seconds", Json(report.mean_duty_seconds))
      .set("sectors", Json(report.sectors));
  // Only faulted runs carry the key: fault-free documents stay
  // byte-identical to pre-fault builds.
  if (report.degradation)
    body.set("degradation", to_json(*report.degradation));
  body.set("oracle", to_json(report.oracle));
  return report_envelope("polling", std::move(body));
}

Json to_json(const SmacReport& report) {
  Json body = to_json(static_cast<const RunStats&>(report));
  body.set("packets_dropped", Json(report.packets_dropped))
      .set("control_frames", Json(report.control_frames))
      .set("rreq_floods", Json(report.rreq_floods))
      .set("mac_failures", Json(report.mac_failures));
  if (report.degradation)
    body.set("degradation", to_json(*report.degradation));
  return report_envelope("smac", std::move(body));
}

Json to_json(const MultiClusterReport& report) {
  Json per_cluster = Json::array();
  for (std::size_t c = 0; c < report.delivery_ratio.size(); ++c) {
    Json cluster = Json::object();
    cluster.set("cluster", Json(c))
        .set("delivery_ratio", Json(report.delivery_ratio[c]));
    if (c < report.mean_active.size())
      cluster.set("mean_active", Json(report.mean_active[c]));
    per_cluster.push_back(std::move(cluster));
  }
  Json body = Json::object()
                  .set("aggregate_delivery", Json(report.aggregate_delivery))
                  .set("aggregate_throughput_bps",
                       Json(report.aggregate_throughput_bps))
                  .set("channels_used", Json(report.channels_used))
                  .set("clusters", std::move(per_cluster))
                  .set("totals", to_json(report.totals));
  if (report.degradation)
    body.set("degradation", to_json(*report.degradation));
  body.set("oracle", to_json(report.oracle));
  return report_envelope("multi_cluster", std::move(body));
}

Json to_json(const Deployment& deployment) {
  Json sensors = Json::array();
  for (std::size_t s = 0; s < deployment.num_sensors(); ++s) {
    const Vec2 p = deployment.positions[s];
    sensors.push_back(
        Json::object().set("x", Json(p.x)).set("y", Json(p.y)));
  }
  const Vec2 head = deployment.head_pos();
  return Json::object()
      .set("num_sensors", Json(deployment.num_sensors()))
      .set("head", Json::object().set("x", Json(head.x)).set("y",
                                                             Json(head.y)))
      .set("sensors", std::move(sensors));
}

Json report_envelope(std::string kind, Json body) {
  return Json::object()
      .set("schema", Json(kReportSchemaVersion))
      .set("kind", Json(std::move(kind)))
      .set("report", std::move(body));
}

bool save_json(const std::string& path, const Json& value, int indent) {
  std::ofstream out(path);
  if (out.is_open()) {
    value.write(out, indent);
    out << '\n';
  }
  if (!out.good()) {
    std::cerr << "note: failed to write JSON to " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace mhp::obs
