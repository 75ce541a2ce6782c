// Full-report pins of the three simulation stacks, and of the canonical
// scenario dumps the daemon's job directory names are hashed from.
//
// Each case runs a small fixed-seed configuration, zeroes the host-side
// perf figures (wall_seconds, events_per_sec), serializes the whole
// report and hashes it with serve::content_hash_hex; sampled runs also
// hash their JSONL trajectory.  A changed hash means some byte of some
// report moved.  The golden tests elsewhere check a few fields to 1e-9;
// these cover the branches they never touch: sectors, faults and
// recovery, token mode, shadowing and the sampler.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "baseline/smac_simulation.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/polling_simulation.hpp"
#include "exp/fig_common.hpp"
#include "net/deployment.hpp"
#include "obs/report_json.hpp"
#include "scenario/campaign.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

std::string pin(const obs::Json& report, const std::string& samples = "") {
  return serve::content_hash_hex(report.dump() + samples);
}

void strip_perf(RunStats& stats) {
  stats.wall_seconds = 0.0;
  stats.events_per_sec = 0.0;
}

// ---------- polling ----------

constexpr std::uint64_t kFaultSeed = 8040;

// Two packets per sensor per cycle: enough for multi-path sensors, so
// path rotation and the routing policy both show in the report.
constexpr double kPinRate = 160.0;

Deployment pin_deployment() {
  Rng rng(1);
  return deploy_connected_uniform_square(24, 200.0, 60.0, rng);
}

std::string polling_pin(const Deployment& dep, const ProtocolConfig& cfg,
                        double rate_bps, bool sampled = false) {
  std::ostringstream samples;
  RuntimeOptions opts;
  if (sampled) opts.samples_stream = &samples;
  PollingSimulation sim(dep, cfg, rate_bps, opts);
  SimulationReport r = sim.run(Time::sec(40), Time::sec(10));
  strip_perf(r);
  return pin(obs::to_json(r), samples.str());
}

/// The sensor that relays for the most others at set-up: killing it
/// forces a repair.
NodeId busiest_relay(const Deployment& dep, const ProtocolConfig& cfg) {
  PollingSimulation probe(dep, cfg, 20.0);
  NodeId victim = 0;
  std::size_t most = 0;
  for (NodeId s = 0; s < dep.num_sensors(); ++s) {
    const std::size_t deps = probe.relay_plan().dependents(s, 0).size();
    if (deps > most) {
      most = deps;
      victim = s;
    }
  }
  return victim;
}

std::string faulted_polling_pin(bool sectors) {
  const Deployment dep = exp::eval_deployment(14, kFaultSeed);
  ProtocolConfig cfg = exp::eval_protocol_config(kFaultSeed, sectors);
  const NodeId victim = busiest_relay(dep, cfg);
  cfg.faults.kill_at(victim, Time::sec(20));
  cfg.faults.kill_on_battery(victim == 0 ? 1 : 0, 0.005);
  cfg.recovery.enabled = true;
  return polling_pin(dep, cfg, 20.0);
}

TEST(StackPins, PollingDefault) {
  EXPECT_EQ(polling_pin(pin_deployment(), ProtocolConfig{}, kPinRate),
            "a68700da06d137fb");
}

TEST(StackPins, PollingFixedPaths) {
  ProtocolConfig cfg;
  cfg.rotate_paths = false;
  EXPECT_EQ(polling_pin(pin_deployment(), cfg, kPinRate), "5197e6562849c0b6");
}

TEST(StackPins, PollingSectors) {
  const Deployment dep = exp::eval_deployment(30, 7);
  EXPECT_EQ(polling_pin(dep, exp::eval_protocol_config(7, true), 20.0),
            "97ac0d9215472e1c");
}

TEST(StackPins, PollingShortestPath) {
  ProtocolConfig cfg;
  cfg.routing = RoutingPolicy::kShortestPath;
  EXPECT_EQ(polling_pin(pin_deployment(), cfg, kPinRate), "5203258f6b3bc845");
}

TEST(StackPins, PollingShadowing) {
  ProtocolConfig cfg;
  cfg.propagation = PropagationModel::kLogNormalShadowing;
  Rng rng(5);
  const Deployment dep = deploy_connected_uniform_square(12, 80.0, 40.0, rng);
  EXPECT_EQ(polling_pin(dep, cfg, 20.0), "6d48c78c48572d62");
}

TEST(StackPins, PollingFreeSpace) {
  ProtocolConfig cfg;
  cfg.propagation = PropagationModel::kFreeSpace;
  EXPECT_EQ(polling_pin(pin_deployment(), cfg, kPinRate), "c855e2e1680a9d46");
}

TEST(StackPins, PollingSampled) {
  EXPECT_EQ(polling_pin(pin_deployment(), ProtocolConfig{}, kPinRate, true),
            "c3e61a75a8652e94");
}

TEST(StackPins, PollingDeathsRecoveryFlat) {
  EXPECT_EQ(faulted_polling_pin(false), "7bda0de192bd5a64");
}

TEST(StackPins, PollingDeathsRecoverySectors) {
  EXPECT_EQ(faulted_polling_pin(true), "f33307270a2fc11b");
}

TEST(StackPins, PollingDegradationWindowSampled) {
  const Deployment dep = exp::eval_deployment(14, kFaultSeed);
  ProtocolConfig cfg = exp::eval_protocol_config(kFaultSeed);
  const NodeId victim = busiest_relay(dep, cfg);
  cfg.faults.kill_at(victim, Time::sec(25));
  cfg.faults.degrade_link(victim == 0 ? 1 : 0, dep.num_sensors(),
                          Time::sec(15), Time::sec(30), 0.5);
  cfg.recovery.enabled = true;
  EXPECT_EQ(polling_pin(dep, cfg, 20.0, true), "395aed4d10e358b3");
}

TEST(StackPins, PollingRecoveryOnly) {
  ProtocolConfig cfg;
  cfg.recovery.enabled = true;
  EXPECT_EQ(polling_pin(pin_deployment(), cfg, kPinRate), "a1bcad0cef844b88");
}

// ---------- multi-cluster ----------

std::vector<ClusterSpec> pin_field() {
  std::vector<ClusterSpec> specs;
  Rng rng(3);
  for (int i = 0; i < 4; ++i) {
    ClusterSpec spec;
    spec.deployment = deploy_connected_uniform_square(10, 170.0, 60.0, rng);
    spec.origin = {(i % 2) * 200.0, (i / 2) * 200.0};
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string field_pin(const ProtocolConfig& cfg, InterClusterMode mode,
                      std::size_t route_workers = 1, bool sampled = false) {
  std::ostringstream samples;
  RuntimeOptions opts;
  opts.route_workers = route_workers;
  if (sampled) opts.samples_stream = &samples;
  MultiClusterSimulation sim(pin_field(), cfg, mode, 30.0, 400.0, opts);
  MultiClusterReport r = sim.run(Time::sec(40), Time::sec(10));
  strip_perf(r.totals);
  return pin(obs::to_json(r), samples.str());
}

ProtocolConfig field_config() {
  ProtocolConfig cfg;
  cfg.seed = 3;
  return cfg;
}

ProtocolConfig faulted_field_config() {
  ProtocolConfig cfg = field_config();
  // Field-wide sensor id 13 = local sensor 3 of cluster 1.
  cfg.faults.kill_at(13, Time::sec(20));
  cfg.faults.kill_on_battery(25, 0.005);
  cfg.recovery.enabled = true;
  return cfg;
}

TEST(StackPins, FieldShared) {
  EXPECT_EQ(field_pin(field_config(), InterClusterMode::kShared),
            "846ecfe90fcef245");
}

TEST(StackPins, FieldColored) {
  EXPECT_EQ(field_pin(field_config(), InterClusterMode::kColored),
            "f1011deedd8c59bc");
}

TEST(StackPins, FieldToken) {
  EXPECT_EQ(field_pin(field_config(), InterClusterMode::kToken),
            "b57182cbfc7c6a99");
}

TEST(StackPins, FieldColoredFourRouteWorkers) {
  // Same pin as FieldColored: worker count never changes a report.
  EXPECT_EQ(field_pin(field_config(), InterClusterMode::kColored, 4),
            "f1011deedd8c59bc");
}

TEST(StackPins, FieldSampled) {
  EXPECT_EQ(field_pin(field_config(), InterClusterMode::kColored, 1, true),
            "a44d9a82fbab4832");
}

TEST(StackPins, FieldDeathsRecoveryColored) {
  EXPECT_EQ(field_pin(faulted_field_config(), InterClusterMode::kColored),
            "7bd6635bb4e10b86");
}

TEST(StackPins, FieldDeathsRecoveryShared) {
  EXPECT_EQ(field_pin(faulted_field_config(), InterClusterMode::kShared),
            "6c25c04d14e627ff");
}

// ---------- S-MAC ----------

std::string smac_pin(const SmacConfig& cfg) {
  Rng rng(1);
  const Deployment dep = deploy_connected_uniform_square(10, 140.0, 60.0, rng);
  SmacSimulation sim(dep, cfg, 15.0);
  SmacReport r = sim.run(Time::sec(30), Time::sec(5));
  strip_perf(r);
  return pin(obs::to_json(r));
}

TEST(StackPins, SmacDefault) {
  EXPECT_EQ(smac_pin(SmacConfig{}), "0a5b4649ba9798e6");
}

TEST(StackPins, SmacDeath) {
  SmacConfig cfg;
  cfg.faults.kill_at(2, Time::sec(12));
  EXPECT_EQ(smac_pin(cfg), "e733f7ae35d759e0");
}

// ---------- shipped scenario files through run_scenario ----------

std::string read_scenario_file(const std::string& file) {
  std::ifstream in(std::string(MHP_SOURCE_DIR) + "/examples/scenarios/" +
                   file);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string scenario_pin(const std::string& file) {
  return pin(scenario::run_scenario(
      scenario::parse_scenario_text(read_scenario_file(file))));
}

TEST(StackPins, ScenarioFig7a) {
  EXPECT_EQ(scenario_pin("fig7a.json"), "ad0c6f2ff38575b0");
}

TEST(StackPins, ScenarioFig7bSmac) {
  EXPECT_EQ(scenario_pin("fig7b_smac.json"), "3fe660ee1bda1ec9");
}

TEST(StackPins, ScenarioFig7cFaulted) {
  EXPECT_EQ(scenario_pin("fig7c_faulted.json"), "73885db2a9925175");
}

TEST(StackPins, ScenarioFig7cSectors) {
  EXPECT_EQ(scenario_pin("fig7c_sectors.json"), "3f3059a9520afec8");
}

TEST(StackPins, ScenarioMultiClusterColored) {
  EXPECT_EQ(scenario_pin("multi_cluster_colored.json"), "88b6e5f3148cb676");
}

// ---------- canonical scenario dumps ----------
//
// The daemon names a job directory after the hash of the canonical dump,
// so a moved byte here silently breaks resume across an upgrade.

std::string dump_pin(const scenario::Scenario& s) {
  return serve::content_hash_hex(scenario::scenario_to_json(s).dump());
}

std::string file_dump_pin(const std::string& file) {
  return dump_pin(scenario::parse_scenario_text(read_scenario_file(file)));
}

TEST(DumpPins, DefaultsPolling) {
  EXPECT_EQ(dump_pin(scenario::default_scenario(scenario::StackKind::kPolling)),
            "e6ed8e970b65c162");
}

TEST(DumpPins, DefaultsMultiCluster) {
  EXPECT_EQ(dump_pin(scenario::default_scenario(
                scenario::StackKind::kMultiCluster)),
            "6864acbaee187e7f");
}

TEST(DumpPins, DefaultsSmac) {
  EXPECT_EQ(dump_pin(scenario::default_scenario(scenario::StackKind::kSmac)),
            "4c3fb70b54f14db8");
}

/// Every enum at a value other than its default, plus the
/// value-dependent sections (explicit deployment, rate list, faults).
TEST(DumpPins, NonDefaultEnumsPolling) {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kPolling);
  s.deployment.kind = scenario::DeploymentSpec::Kind::kExplicit;
  s.deployment.sensors = {{10.0, 0.0}, {20.0, 5.0}, {-30.0, 12.5}};
  s.deployment.head = {1.0, -2.0};
  s.traffic.rates_bps = {5.0, 10.0, 15.0};
  s.protocol.routing = RoutingPolicy::kShortestPath;
  s.protocol.propagation = PropagationModel::kLogNormalShadowing;
  s.protocol.faults.kill_at(1, Time::sec(20));
  s.protocol.faults.kill_on_battery(2, 0.5);
  s.protocol.faults.degrade_link(0, 1, Time::sec(5), Time::sec(9), 0.25);
  EXPECT_EQ(dump_pin(s), "c3fde1a781ffcc86");
}

TEST(DumpPins, NonDefaultEnumsMultiCluster) {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kMultiCluster);
  s.deployment.kind = scenario::DeploymentSpec::Kind::kRings;
  s.protocol.propagation = PropagationModel::kFreeSpace;
  s.clusters.mode = InterClusterMode::kToken;
  EXPECT_EQ(dump_pin(s), "5d6f87c0966a2cdc");
  s.deployment.kind = scenario::DeploymentSpec::Kind::kUniformSquare;
  s.clusters.mode = InterClusterMode::kShared;
  EXPECT_EQ(dump_pin(s), "d174c02e0b3b2b56");
  s.deployment.kind = scenario::DeploymentSpec::Kind::kGrid;
  EXPECT_EQ(dump_pin(s), "d8cbfceca26a855c");
}

TEST(DumpPins, ShippedFig7a) {
  EXPECT_EQ(file_dump_pin("fig7a.json"), "b72dcb57b323781c");
}

TEST(DumpPins, ShippedFig7bSmac) {
  EXPECT_EQ(file_dump_pin("fig7b_smac.json"), "2552ac903fc57a42");
}

TEST(DumpPins, ShippedFig7cFaulted) {
  EXPECT_EQ(file_dump_pin("fig7c_faulted.json"), "e4680db29ceff813");
}

TEST(DumpPins, ShippedFig7cSectors) {
  EXPECT_EQ(file_dump_pin("fig7c_sectors.json"), "db47bd1333116c2d");
}

TEST(DumpPins, ShippedMultiClusterColored) {
  EXPECT_EQ(file_dump_pin("multi_cluster_colored.json"), "2b8a696ed905dd8a");
}

TEST(DumpPins, ShippedCampaignFig7aBase) {
  const scenario::Campaign campaign = scenario::parse_campaign(
      obs::parse_json(read_scenario_file("campaign_fig7a.json")),
      read_scenario_file);
  // The base is fig7a.json, so its canonical form is that file's dump.
  EXPECT_EQ(serve::content_hash_hex(campaign.base.dump()),
            "b72dcb57b323781c");
}

}  // namespace
}  // namespace mhp
