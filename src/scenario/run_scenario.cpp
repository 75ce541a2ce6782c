#include "scenario/run_scenario.hpp"

#include <ostream>
#include <utility>
#include <vector>

#include "baseline/smac_simulation.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/polling_simulation.hpp"
#include "obs/profiler.hpp"
#include "obs/report_json.hpp"
#include "util/rng.hpp"

namespace mhp::scenario {

Deployment build_deployment(const DeploymentSpec& spec,
                            std::uint64_t seed_offset) {
  using Kind = DeploymentSpec::Kind;
  switch (spec.kind) {
    case Kind::kConnectedUniformSquare: {
      Rng rng(spec.seed + seed_offset);
      return deploy_connected_uniform_square(spec.n_sensors, spec.side,
                                             spec.sensor_range, rng);
    }
    case Kind::kUniformSquare: {
      Rng rng(spec.seed + seed_offset);
      return deploy_uniform_square(spec.n_sensors, spec.side, rng);
    }
    case Kind::kGrid:
      return deploy_grid(spec.n_sensors, spec.side);
    case Kind::kRings:
      return deploy_rings(spec.rings, spec.per_ring, spec.spacing);
    case Kind::kExplicit: {
      Deployment d;
      d.positions = spec.sensors;
      d.positions.push_back(spec.head);
      return d;
    }
  }
  throw ScenarioError("scenario.deployment.kind: unhandled kind");
}

namespace {

RuntimeOptions runtime_options(const Scenario& s,
                               const RunScenarioOptions& opts) {
  RuntimeOptions rt;
  rt.trace_max_entries = s.trace_max_entries;
  rt.route_workers = s.route_workers;
  if (opts.samples_out != nullptr && s.sample_period > Time::zero()) {
    rt.samples_stream = opts.samples_out;
    rt.sample_period = s.sample_period;
  }
  return rt;
}

/// Strip the non-deterministic host-side perf figures (the same fields
/// the golden tests zero) so the report depends only on the scenario.
void strip_perf(RunStats& stats) {
  stats.wall_seconds = 0.0;
  stats.events_per_sec = 0.0;
}

/// build_deployment under a "deploy" span, so a profile attributes the
/// time spent drawing connected deployments.
Deployment deploy(const DeploymentSpec& spec, std::uint64_t seed_offset = 0) {
  MHP_SPAN("deploy");
  return build_deployment(spec, seed_offset);
}

obs::Json run_polling(const Scenario& s, const RunScenarioOptions& opts) {
  const Deployment dep = deploy(s.deployment);
  PollingSimulation sim(dep, s.protocol,
                        s.traffic.rates_bps.empty()
                            ? std::vector<double>(s.deployment.sensor_count(),
                                                  s.traffic.rate_bps)
                            : s.traffic.rates_bps,
                        runtime_options(s, opts));
  SimulationReport report = sim.run(s.run.duration, s.run.warmup);
  if (!s.run.record_perf) strip_perf(report);
  return obs::to_json(report);
}

obs::Json run_multi_cluster(const Scenario& s, const RunScenarioOptions& opts) {
  std::vector<ClusterSpec> clusters;
  clusters.reserve(s.clusters.grid_x * s.clusters.grid_y);
  for (std::size_t gy = 0; gy < s.clusters.grid_y; ++gy) {
    for (std::size_t gx = 0; gx < s.clusters.grid_x; ++gx) {
      const std::size_t index = gy * s.clusters.grid_x + gx;
      ClusterSpec spec;
      spec.deployment = deploy(s.deployment, index);
      spec.origin = Vec2{static_cast<double>(gx) * s.clusters.pitch,
                         static_cast<double>(gy) * s.clusters.pitch};
      clusters.push_back(std::move(spec));
    }
  }
  MultiClusterSimulation sim(std::move(clusters), s.protocol, s.clusters.mode,
                             s.traffic.rate_bps,
                             s.clusters.interference_range,
                             runtime_options(s, opts));
  MultiClusterReport report = sim.run(s.run.duration, s.run.warmup);
  if (!s.run.record_perf) strip_perf(report.totals);
  return obs::to_json(report);
}

obs::Json run_smac(const Scenario& s, const RunScenarioOptions& opts) {
  const Deployment dep = deploy(s.deployment);
  SmacSimulation sim(dep, s.smac,
                     s.traffic.rates_bps.empty()
                         ? std::vector<double>(s.deployment.sensor_count(),
                                               s.traffic.rate_bps)
                         : s.traffic.rates_bps,
                     runtime_options(s, opts));
  SmacReport report = sim.run(s.run.duration, s.run.warmup);
  if (!s.run.record_perf) strip_perf(report);
  return obs::to_json(report);
}

obs::Json run_stack(const Scenario& s, const RunScenarioOptions& opts) {
  switch (s.stack) {
    case StackKind::kPolling:
      return run_polling(s, opts);
    case StackKind::kMultiCluster:
      return run_multi_cluster(s, opts);
    case StackKind::kSmac:
      return run_smac(s, opts);
  }
  throw ScenarioError("scenario.stack: unhandled stack");
}

}  // namespace

obs::Json run_scenario(const Scenario& s, const RunScenarioOptions& opts) {
  if (!s.profile) return run_stack(s, opts);

  // Discard anything recorded before this run so the summary covers
  // exactly this scenario, even when several runs share the process.
  obs::Profiler& prof = obs::Profiler::instance();
  prof.drain();
  prof.enable();
  obs::Json envelope;
  try {
    envelope = run_stack(s, opts);
  } catch (...) {
    prof.disable();
    prof.drain();
    throw;
  }
  prof.disable();
  const obs::ProfileData data = prof.drain();
  envelope.set("profile", obs::to_json(
                              summarize_profile(data, !s.run.record_perf)));
  if (opts.trace_out != nullptr)
    *opts.trace_out << obs::chrome_trace_json(data).dump() << "\n";
  return envelope;
}

}  // namespace mhp::scenario
