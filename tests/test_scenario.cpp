// Scenario & campaign subsystem: duration codec, strict schema parsing
// with path-qualified errors, canonical round-trips, golden equivalence
// between file-driven and C++-constructed runs, and campaign
// expansion/resume semantics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "baseline/smac_simulation.hpp"
#include "core/polling_simulation.hpp"
#include "obs/report_json.hpp"
#include "scenario/campaign.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace mhp::scenario {
namespace {

// ---------- durations ----------

TEST(Duration, ParsesEveryUnit) {
  EXPECT_EQ(parse_duration("5ns"), Time::ns(5));
  EXPECT_EQ(parse_duration("20us"), Time::us(20));
  EXPECT_EQ(parse_duration("1500ms"), Time::ms(1500));
  EXPECT_EQ(parse_duration("40s"), Time::sec(40));
  EXPECT_EQ(parse_duration("0s"), Time::zero());
}

TEST(Duration, ParsesFractions) {
  EXPECT_EQ(parse_duration("1.5ms"), Time::us(1500));
  EXPECT_EQ(parse_duration("0.25s"), Time::ms(250));
  EXPECT_EQ(parse_duration("2.5us"), Time::ns(2500));
}

TEST(Duration, RejectsMalformedStrings) {
  for (const char* bad : {"", "12", "s", "12 s", "-5ms", "1.5ns", "1.s",
                          ".5s", "12m", "1e3s", "5secs"}) {
    EXPECT_THROW(parse_duration(bad), ScenarioError) << bad;
  }
}

TEST(Duration, FormatsInLargestExactUnit) {
  EXPECT_EQ(format_duration(Time::sec(40)), "40s");
  EXPECT_EQ(format_duration(Time::ms(1500)), "1500ms");
  EXPECT_EQ(format_duration(Time::us(20)), "20us");
  EXPECT_EQ(format_duration(Time::ns(7)), "7ns");
  EXPECT_EQ(format_duration(Time::zero()), "0s");
}

TEST(Duration, FormatParseRoundTripsArbitraryValues) {
  SplitMix64 rng(99);
  for (int i = 0; i < 200; ++i) {
    const Time t = Time::ns(static_cast<std::int64_t>(rng.next() >> 20));
    EXPECT_EQ(parse_duration(format_duration(t)), t);
  }
}

// Regression: the fraction used to be converted as (frac * ns_per_unit)
// / frac_den, which signed-overflows (UB) once frac has ~18 digits — the
// reduction must happen before the multiply.  Exercised under UBSan.
TEST(Duration, LongFractionsDoNotOverflow) {
  // Finer than 1 ns in every unit: rejected, never UB.
  for (const char* sub_ns :
       {"0.999999999999999999s", "1.999999999999999999s",
        "0.999999999999999999ms", "0.999999999999999999us",
        "0.999999999999999999ns", "0.100000000000000001s"}) {
    EXPECT_THROW(parse_duration(sub_ns), ScenarioError) << sub_ns;
  }
  // Long but exact fractions (trailing zeros) must still parse: the
  // reduced value is a whole number of nanoseconds.
  EXPECT_EQ(parse_duration("0.999999999000000000s"), Time::ns(999'999'999));
  EXPECT_EQ(parse_duration("0.500000000000000000s"), Time::ms(500));
  EXPECT_EQ(parse_duration("1.250000000000000000ms"), Time::us(1250));
  EXPECT_EQ(parse_duration("3.000000000000000000us"), Time::us(3));
  // Maximum resolution of each unit parses exactly.
  EXPECT_EQ(parse_duration("0.999999999s"), Time::ns(999'999'999));
  EXPECT_EQ(parse_duration("0.999999ms"), Time::ns(999'999));
  EXPECT_EQ(parse_duration("0.999us"), Time::ns(999));
  // One more fraction digit than the unit resolves: rejected.
  EXPECT_THROW(parse_duration("0.9999999999s"), ScenarioError);
  EXPECT_THROW(parse_duration("0.9999999ms"), ScenarioError);
  EXPECT_THROW(parse_duration("0.9999us"), ScenarioError);
  EXPECT_THROW(parse_duration("0.9ns"), ScenarioError);
}

// Regression: format_duration used to emit "-5ms", which parse_duration
// rejects — breaking the documented dump→parse round-trip.  Negative
// durations are a contract violation (the scenario schema is unsigned).
TEST(Duration, FormatRejectsNegativeDurations) {
  EXPECT_THROW(format_duration(Time::ns(-1)), ContractViolation);
  EXPECT_THROW(format_duration(Time::ms(-5)), ContractViolation);
  EXPECT_THROW(format_duration(Time::ns(INT64_MIN)), ContractViolation);
}

TEST(Duration, RoundTripsBoundaryValueGrid) {
  const std::int64_t boundaries[] = {0,
                                     1,
                                     999,
                                     1'000,
                                     1'001,
                                     999'999,
                                     1'000'000,
                                     1'000'001,
                                     999'999'999,
                                     1'000'000'000,
                                     1'000'000'001,
                                     INT64_MAX - 1,
                                     INT64_MAX};
  for (const std::int64_t base : boundaries) {
    for (const std::int64_t delta : {-1, 0, 1}) {
      if ((base == INT64_MAX && delta > 0) || base + delta < 0) continue;
      const Time t = Time::ns(base + delta);
      EXPECT_EQ(parse_duration(format_duration(t)), t) << base + delta;
    }
  }
}

// ---------- canonical round-trip ----------

std::string canonical_dump(const Scenario& s) {
  return scenario_to_json(s).dump(2);
}

TEST(ScenarioRoundTrip, DefaultsDumpParseRedumpByteIdentical) {
  for (const StackKind stack : {StackKind::kPolling, StackKind::kMultiCluster,
                                StackKind::kSmac}) {
    const std::string first = canonical_dump(default_scenario(stack));
    const std::string second =
        canonical_dump(parse_scenario_text(first));
    EXPECT_EQ(first, second) << "stack " << to_string(stack);
  }
}

TEST(ScenarioRoundTrip, NonDefaultFieldsSurvive) {
  Scenario s = default_scenario(StackKind::kPolling);
  s.deployment.kind = DeploymentSpec::Kind::kRings;
  s.deployment.rings = 4;
  s.deployment.per_ring = 6;
  s.traffic.rates_bps.assign(24, 15.0);
  s.protocol.oracle_order = 2;
  s.protocol.use_sectors = true;
  s.protocol.routing = RoutingPolicy::kShortestPath;
  s.protocol.recovery.enabled = true;
  s.protocol.faults.kill_at(3, Time::sec(20));
  s.protocol.faults.degrade_link(1, 2, Time::sec(5), Time::sec(9), 0.5);
  s.run.record_perf = false;
  const std::string dumped = canonical_dump(s);
  const Scenario back = parse_scenario_text(dumped);
  EXPECT_EQ(canonical_dump(back), dumped);
  EXPECT_EQ(back.deployment.kind, DeploymentSpec::Kind::kRings);
  EXPECT_EQ(back.traffic.rates_bps.size(), 24u);
  EXPECT_EQ(back.protocol.oracle_order, 2);
  EXPECT_TRUE(back.protocol.recovery.enabled);
  ASSERT_EQ(back.protocol.faults.deaths().size(), 1u);
  EXPECT_EQ(back.protocol.faults.deaths()[0].at, Time::sec(20));
  ASSERT_EQ(back.protocol.faults.degradations().size(), 1u);
  EXPECT_DOUBLE_EQ(back.protocol.faults.degradations()[0].loss, 0.5);
}

TEST(ScenarioRoundTrip, ExplicitDeploymentSurvives) {
  Scenario s = default_scenario(StackKind::kSmac);
  s.deployment.kind = DeploymentSpec::Kind::kExplicit;
  s.deployment.sensors = {{10.0, 0.0}, {20.0, 5.0}, {-30.0, 12.5}};
  s.deployment.head = {1.0, -2.0};
  const std::string dumped = canonical_dump(s);
  const Scenario back = parse_scenario_text(dumped);
  EXPECT_EQ(canonical_dump(back), dumped);
  ASSERT_EQ(back.deployment.sensors.size(), 3u);
  EXPECT_EQ(back.deployment.sensors[2], (Vec2{-30.0, 12.5}));
  EXPECT_EQ(back.deployment.head, (Vec2{1.0, -2.0}));
}

// ---------- strict validation ----------

/// Expect parse failure whose message contains `needle`.
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    parse_scenario_text(text);
    FAIL() << "expected rejection mentioning: " << needle;
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(ScenarioValidation, UnknownKeysArePathQualified) {
  expect_rejected(R"({"stack": "polling", "oracl_order": 3})",
                  "scenario.oracl_order: unknown key");
  expect_rejected(
      R"({"stack": "polling", "protocol": {"oracl_order": 3}})",
      "scenario.protocol.oracl_order: unknown key");
  expect_rejected(
      R"({"stack": "polling", "protocol": {"radio": {"bandwidth": 1.0}}})",
      "scenario.protocol.radio.bandwidth: unknown key");
  // The scheduler always runs through the oracle cache; the switch that
  // once turned it off is gone, not ignored.
  expect_rejected(
      R"({"stack": "polling", "protocol": {"cache_oracle": false}})",
      "scenario.protocol.cache_oracle: unknown key");
}

TEST(ScenarioValidation, WrongTypesArePathQualified) {
  expect_rejected(
      R"({"stack": "polling", "protocol": {"oracle_order": "three"}})",
      "scenario.protocol.oracle_order: expected integer, got string");
  expect_rejected(R"({"stack": "polling", "run": {"record_perf": 1}})",
                  "scenario.run.record_perf: expected boolean, got integer");
  expect_rejected(R"({"stack": "polling", "deployment": []})",
                  "scenario.deployment: expected object, got array");
}

TEST(ScenarioValidation, BadDurationsArePathQualified) {
  expect_rejected(R"({"stack": "polling", "run": {"duration": "40"}})",
                  "scenario.run.duration: bad duration \"40\"");
  expect_rejected(
      R"({"stack": "polling", "protocol": {"turnaround": "20usec"}})",
      "scenario.protocol.turnaround: bad duration");
  expect_rejected(R"({"stack": "polling", "run": {"duration": 40}})",
                  "scenario.run.duration: expected duration string");
}

TEST(ScenarioValidation, MultiClusterRejectsSectors) {
  expect_rejected(
      R"({"stack": "multi_cluster", "protocol": {"use_sectors": true}})",
      "scenario.protocol.use_sectors: not supported by the multi_cluster "
      "stack");
}

TEST(ScenarioValidation, SemanticRangesAreChecked) {
  expect_rejected(R"({"stack": "polling", "traffic": {"rate_bps": -1.0}})",
                  "scenario.traffic.rate_bps: must be >= 0");
  expect_rejected(
      R"({"stack": "polling", "protocol": {"oracle_order": 0}})",
      "scenario.protocol.oracle_order: must be >= 1");
  expect_rejected(
      R"({"stack": "polling", "run": {"duration": "5s", "warmup": "9s"}})",
      "scenario.run.warmup: must be shorter than duration");
  expect_rejected(R"({"stack": "smac", "smac": {"duty_cycle": 1.5}})",
                  "scenario.smac.duty_cycle: must be in (0, 1]");
  expect_rejected(
      R"({"stack": "polling", "runtime": {"trace_max_entries": 0}})",
      "scenario.runtime.trace_max_entries: must be >= 1");
}

TEST(ScenarioValidation, SectionsAreGatedByStack) {
  expect_rejected(R"({"stack": "smac", "protocol": {}})",
                  "scenario.protocol: section not valid for the \"smac\"");
  expect_rejected(R"({"stack": "polling", "smac": {}})",
                  "scenario.smac: section not valid for the \"polling\"");
  expect_rejected(R"({"stack": "polling", "clusters": {}})",
                  "scenario.clusters: section not valid");
}

TEST(ScenarioValidation, DeploymentKeysAreGatedByKind) {
  expect_rejected(
      R"({"stack": "polling",
          "deployment": {"kind": "rings", "side": 100.0}})",
      "scenario.deployment.side: unknown key");
  expect_rejected(
      R"({"stack": "polling", "deployment": {"kind": "grid", "seed": 3}})",
      "scenario.deployment.seed: unknown key");
}

TEST(ScenarioValidation, TrafficCrossChecks) {
  expect_rejected(
      R"({"stack": "polling",
          "traffic": {"rate_bps": 10.0, "rates_bps": [1.0]}})",
      "mutually exclusive");
  expect_rejected(
      R"({"stack": "polling",
          "deployment": {"kind": "rings", "rings": 2, "per_ring": 4},
          "traffic": {"rates_bps": [1.0, 2.0]}})",
      "expected 8 entries");
  expect_rejected(
      R"({"stack": "multi_cluster", "traffic": {"rates_bps": [1.0]}})",
      "scenario.traffic.rates_bps: not supported by the multi_cluster");
}

TEST(ScenarioValidation, FaultPlansAreChecked) {
  expect_rejected(
      R"({"stack": "polling",
          "deployment": {"kind": "rings", "rings": 2, "per_ring": 4},
          "faults": {"deaths": [{"node": 8, "at": "5s"}]}})",
      "scenario.faults.deaths[0].node: sensor id 8 out of range");
  expect_rejected(
      R"({"stack": "polling", "faults": {"deaths": [{"node": 1}]}})",
      "exactly one of \"at\"");
  expect_rejected(
      R"({"stack": "smac",
          "faults": {"degrade_links":
            [{"a": 0, "b": 1, "begin": "1s", "end": "2s", "loss": 1.0}]}})",
      "scenario.faults.degrade_links: not supported by the smac stack");
}

// ---------- JsonParseError line:column (multi-line regression) ----------

TEST(JsonParseErrorPosition, ReportsLineAndColumn) {
  const std::string text = "{\n  \"a\": 1,\n  \"b\": ?\n}\n";
  try {
    obs::parse_json(text);
    FAIL() << "expected JsonParseError";
  } catch (const obs::JsonParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 8u);
    EXPECT_EQ(e.offset(), text.find('?'));
    EXPECT_NE(std::string(e.what()).find("line 3, column 8"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonParseErrorPosition, FirstLineIsOneBased) {
  try {
    obs::parse_json("[1, }");
    FAIL() << "expected JsonParseError";
  } catch (const obs::JsonParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.column(), 5u);
    EXPECT_EQ(e.offset(), 4u);
  }
}

// ---------- golden equivalence: file-driven == C++-constructed ----------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::string kScenarioDir =
    std::string(MHP_SOURCE_DIR) + "/examples/scenarios";

TEST(ScenarioGolden, Fig7aFileMatchesHandConstructedRun) {
  // File-driven run.
  const Scenario s =
      parse_scenario_text(read_file(kScenarioDir + "/fig7a.json"));
  const obs::Json from_file = run_scenario(s);

  // The same configuration spelled in C++, as fig7a-style code would.
  Rng rng(42);
  const Deployment dep = deploy_connected_uniform_square(30, 200.0, 60.0, rng);
  ProtocolConfig cfg;
  cfg.oracle_order = 3;
  PollingSimulation sim(dep, cfg, 20.0);
  SimulationReport report = sim.run(Time::sec(40), Time::sec(10));
  report.wall_seconds = 0.0;  // the file sets record_perf: false
  report.events_per_sec = 0.0;
  EXPECT_EQ(from_file.dump(2), obs::to_json(report).dump(2));
}

TEST(ScenarioGolden, SmacScenarioMatchesHandConstructedRun) {
  Scenario s = default_scenario(StackKind::kSmac);
  s.deployment.kind = DeploymentSpec::Kind::kRings;
  s.deployment.rings = 2;
  s.deployment.per_ring = 4;
  s.run.duration = Time::sec(20);
  s.run.warmup = Time::sec(5);
  s.run.record_perf = false;
  const obs::Json from_scenario = run_scenario(s);

  const Deployment dep = deploy_rings(2, 4, 40.0);
  SmacSimulation sim(dep, SmacConfig{}, 20.0);
  SmacReport report = sim.run(Time::sec(20), Time::sec(5));
  report.wall_seconds = 0.0;
  report.events_per_sec = 0.0;
  EXPECT_EQ(from_scenario.dump(2), obs::to_json(report).dump(2));
}

TEST(ScenarioGolden, RepeatedRunsAreByteIdentical) {
  Scenario s = default_scenario(StackKind::kPolling);
  s.deployment.kind = DeploymentSpec::Kind::kRings;
  s.deployment.rings = 2;
  s.deployment.per_ring = 4;
  s.run.duration = Time::sec(15);
  s.run.warmup = Time::sec(5);
  s.run.record_perf = false;
  EXPECT_EQ(run_scenario(s).dump(), run_scenario(s).dump());
}

// ---------- shipped example files ----------

TEST(ScenarioExamples, EveryShippedScenarioParses) {
  std::size_t seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(kScenarioDir)) {
    const std::string path = entry.path().string();
    if (entry.path().extension() != ".json") continue;
    if (path.find("campaign") != std::string::npos) continue;
    ++seen;
    EXPECT_NO_THROW(parse_scenario_text(read_file(path))) << path;
  }
  EXPECT_GE(seen, 4u);
}

TEST(ScenarioExamples, ShippedCampaignParsesAndExpands) {
  const Campaign campaign = parse_campaign(
      obs::parse_json(read_file(kScenarioDir + "/campaign_fig7a.json")),
      [](const std::string& base) {
        return read_file(kScenarioDir + "/" + base);
      });
  const auto points = expand_campaign(campaign);
  EXPECT_EQ(points.size(), 6u);  // 3 sensor counts × 2 rates
}

// ---------- campaigns ----------

TEST(CampaignExpansion, CrossProductLastKeyFastest) {
  Campaign campaign;
  campaign.base = scenario_to_json(default_scenario(StackKind::kPolling));
  campaign.sweep.emplace_back(
      "protocol.oracle_order",
      std::vector<obs::Json>{obs::Json(2), obs::Json(3)});
  campaign.sweep.emplace_back(
      "traffic.rate_bps",
      std::vector<obs::Json>{obs::Json(10.0), obs::Json(20.0)});
  const auto points = expand_campaign(campaign);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].key, "protocol.oracle_order=2,traffic.rate_bps=10.0");
  EXPECT_EQ(points[1].key, "protocol.oracle_order=2,traffic.rate_bps=20.0");
  EXPECT_EQ(points[2].key, "protocol.oracle_order=3,traffic.rate_bps=10.0");
  EXPECT_EQ(points[3].key, "protocol.oracle_order=3,traffic.rate_bps=20.0");
  EXPECT_EQ(points[1].doc.at("protocol").at("oracle_order").as_int(), 2);
  EXPECT_DOUBLE_EQ(points[1].doc.at("traffic").at("rate_bps").as_double(),
                   20.0);
}

TEST(CampaignExpansion, EmptySweepIsOneBasePoint) {
  Campaign campaign;
  campaign.base = scenario_to_json(default_scenario(StackKind::kPolling));
  const auto points = expand_campaign(campaign);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].key, "base");
}

TEST(CampaignPaths, SetByPathRejectsUnknownPaths) {
  obs::Json doc = scenario_to_json(default_scenario(StackKind::kPolling));
  set_by_path(doc, "protocol.oracle_order", obs::Json(2));
  EXPECT_EQ(doc.at("protocol").at("oracle_order").as_int(), 2);
  EXPECT_THROW(set_by_path(doc, "protocol.oracl_order", obs::Json(2)),
               ScenarioError);
  EXPECT_THROW(set_by_path(doc, "nope.deep.path", obs::Json(1)),
               ScenarioError);
}

TEST(CampaignPaths, ParseCampaignFailsFastOnBadSweepPath) {
  const obs::Json doc = obs::parse_json(
      R"({"base": {"stack": "polling"},
          "sweep": {"protocol.oracl_order": [2]}})");
  EXPECT_THROW(parse_campaign(doc, nullptr), ScenarioError);
}

/// Small, fast base scenario for campaign-execution tests.
obs::Json quick_base() {
  Scenario s = default_scenario(StackKind::kPolling);
  s.deployment.kind = DeploymentSpec::Kind::kRings;
  s.deployment.rings = 2;
  s.deployment.per_ring = 4;
  s.run.duration = Time::sec(12);
  s.run.warmup = Time::sec(2);
  s.run.record_perf = false;
  return scenario_to_json(s);
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++n;
  return n;
}

TEST(CampaignRun, IsolatesFailuresAndResumesFromManifest) {
  Campaign campaign;
  campaign.name = "resume_test";
  campaign.base = quick_base();
  // -1.0 fails semantic validation at the point level: the campaign must
  // record the failure and still complete the healthy points.
  campaign.sweep.emplace_back(
      "traffic.rate_bps",
      std::vector<obs::Json>{obs::Json(20.0), obs::Json(-1.0),
                             obs::Json(10.0)});

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mhp_campaign_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  const CampaignResult first = run_campaign(campaign, dir, 2, nullptr);
  EXPECT_EQ(first.total, 3u);
  EXPECT_EQ(first.ok, 2u);
  EXPECT_EQ(first.failed, 1u);
  EXPECT_EQ(first.skipped, 0u);
  EXPECT_EQ(count_lines(dir + "/results.jsonl"), 2u);
  EXPECT_EQ(count_lines(dir + "/manifest.jsonl"), 3u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/summary.json"));

  // Re-run: completed points are skipped, the failed one retried (and it
  // fails again), no duplicate results appended.
  const CampaignResult second = run_campaign(campaign, dir, 2, nullptr);
  EXPECT_EQ(second.total, 3u);
  EXPECT_EQ(second.skipped, 2u);
  EXPECT_EQ(second.ok, 0u);
  EXPECT_EQ(second.failed, 1u);
  EXPECT_EQ(count_lines(dir + "/results.jsonl"), 2u);

  // The failure is on record with its path-qualified error.
  const std::string manifest = read_file(dir + "/manifest.jsonl");
  EXPECT_NE(manifest.find("scenario.traffic.rate_bps: must be >= 0"),
            std::string::npos);

  // Summary rolls up the ok points on record.
  const obs::Json summary =
      obs::parse_json(read_file(dir + "/summary.json"));
  EXPECT_EQ(summary.at("kind").as_string(), "campaign_summary");
  EXPECT_EQ(summary.at("report").at("points").at("ok").as_int(), 2);
  EXPECT_EQ(summary.at("report").at("points").at("failed").as_int(), 1);
  EXPECT_EQ(summary.at("report")
                .at("aggregates")
                .at("delivery_ratio")
                .at("count")
                .as_int(),
            2);

  std::filesystem::remove_all(dir);
}

TEST(CampaignRun, ContractFailureBecomesThePointsError) {
  // A 4-sensor grid spread over 5 km passes validation but trips the
  // cluster's set-up contract; its ContractViolation text is the point's
  // post-mortem.  The 100 m grid beside it is connected and runs.
  Campaign campaign;
  campaign.name = "contract_failure";
  campaign.base = obs::parse_json(
      R"({"stack": "polling",
          "deployment": {"kind": "grid", "n_sensors": 4, "side": 100.0},
          "run": {"duration": "6s", "warmup": "1s", "record_perf": false}})");
  campaign.sweep.emplace_back(
      "deployment.side",
      std::vector<obs::Json>{obs::Json(5000.0), obs::Json(100.0)});

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mhp_campaign_contract_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  const CampaignResult r = run_campaign(campaign, dir, 1, nullptr);
  EXPECT_EQ(r.total, 2u);
  EXPECT_EQ(r.ok, 1u);
  EXPECT_EQ(r.failed, 1u);

  std::map<std::string, obs::Json> manifest;
  for (auto& [key, entry] : read_keyed_jsonl(dir + "/manifest.jsonl"))
    manifest.emplace(key, std::move(entry));
  ASSERT_EQ(manifest.size(), 2u);
  const obs::Json& failed = manifest.at("deployment.side=5000.0");
  EXPECT_EQ(failed.at("status").as_string(), "failed");
  // Substrings only: the error's file path depends on the build tree.
  const std::string error = failed.at("error").as_string();
  EXPECT_NE(error.find("precondition failed"), std::string::npos) << error;
  EXPECT_NE(error.find("topo_.fully_connected()"), std::string::npos)
      << error;
  EXPECT_NE(error.find("cluster not fully connected"), std::string::npos)
      << error;
  EXPECT_EQ(manifest.at("deployment.side=100.0").at("status").as_string(),
            "ok");

  const auto results = read_keyed_jsonl(dir + "/results.jsonl");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].first, "deployment.side=100.0");
  EXPECT_EQ(results[0].second.at("report").at("kind").as_string(), "polling");

  const obs::Json summary =
      obs::parse_json(read_file(dir + "/summary.json"));
  EXPECT_EQ(summary.at("report").at("points").at("ok").as_int(), 1);
  EXPECT_EQ(summary.at("report").at("points").at("failed").as_int(), 1);

  std::filesystem::remove_all(dir);
}

TEST(CampaignRun, TornManifestTailIsIgnoredAndPointReruns) {
  Campaign campaign;
  campaign.name = "torn_tail";
  campaign.base = quick_base();

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mhp_campaign_torn_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Simulate a kill mid-append: a truncated JSON line must not wedge the
  // resume logic — the point simply runs again.
  std::ofstream(dir + "/manifest.jsonl") << "{\"key\": \"base\", \"sta";

  const CampaignResult r = run_campaign(campaign, dir, 1, nullptr);
  EXPECT_EQ(r.total, 1u);
  EXPECT_EQ(r.ok, 1u);
  EXPECT_EQ(r.skipped, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRun, KeyedJsonlKeepsFirstOrderAndLastValue) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mhp_keyed_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  // Repeated keys, a keyless line, a blank line and a torn tail: the
  // torn rewrite of "a" must not replace its last whole line.
  std::ofstream(path) << "{\"key\": \"b\", \"v\": 1}\n"
                      << "{\"key\": \"a\", \"v\": 1}\n"
                      << "{\"key\": \"b\", \"v\": 2}\n"
                      << "\n"
                      << "{\"v\": 3}\n"
                      << "{\"key\": \"c\", \"v\": 1}\n"
                      << "{\"key\": \"b\", \"v\": 3}\n"
                      << "{\"key\": \"a\", \"v\": ";
  const auto entries = read_keyed_jsonl(path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "b");
  EXPECT_EQ(entries[0].second.at("v").as_int(), 3);
  EXPECT_EQ(entries[1].first, "a");
  EXPECT_EQ(entries[1].second.at("v").as_int(), 1);
  EXPECT_EQ(entries[2].first, "c");
  EXPECT_EQ(entries[2].second.at("v").as_int(), 1);
  std::filesystem::remove(path);
}

TEST(CampaignRun, StopFlagInterruptsCleanlyAndResumeCompletes) {
  Campaign campaign;
  campaign.name = "interrupt";
  campaign.base = quick_base();
  campaign.sweep.emplace_back(
      "traffic.rate_bps",
      std::vector<obs::Json>{obs::Json(10.0), obs::Json(20.0),
                             obs::Json(30.0)});

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mhp_campaign_stop_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  // A stop flag raised before dispatch (the SIGINT path, taken to its
  // extreme): every point is abandoned before it runs, and nothing is
  // recorded — the manifest stays honest for the resume.
  std::atomic<bool> stop{true};
  const CampaignResult first = run_campaign(campaign, dir, 2, nullptr, &stop);
  EXPECT_EQ(first.total, 3u);
  EXPECT_EQ(first.interrupted, 3u);
  EXPECT_EQ(first.ok, 0u);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(count_lines(dir + "/results.jsonl"), 0u);
  EXPECT_EQ(count_lines(dir + "/manifest.jsonl"), 0u);

  // Re-run without the flag: the interrupted points were never marked
  // done, so the whole campaign completes.
  const CampaignResult second = run_campaign(campaign, dir, 2, nullptr);
  EXPECT_EQ(second.ok, 3u);
  EXPECT_EQ(second.skipped, 0u);
  EXPECT_EQ(second.interrupted, 0u);
  EXPECT_EQ(count_lines(dir + "/results.jsonl"), 3u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRun, PointWallMsGatedByRecordPerf) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mhp_campaign_wall_" + std::to_string(::getpid())))
          .string();

  // record_perf false (the quick_base default): the wall-clock field is
  // recorded but zeroed, keeping results byte-deterministic.
  Campaign off;
  off.name = "wall_off";
  off.base = quick_base();
  std::filesystem::remove_all(dir);
  ASSERT_EQ(run_campaign(off, dir, 1, nullptr).ok, 1u);
  {
    std::ifstream in(dir + "/results.jsonl");
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const obs::Json entry = obs::parse_json(line);
    EXPECT_EQ(entry.at("point_wall_ms").as_double(), 0.0);
  }
  // The summary always carries the latency roll-up block.
  const obs::Json summary =
      obs::parse_json(read_file(dir + "/summary.json"));
  const obs::Json& wall = summary.at("report").at("point_wall_ms");
  EXPECT_EQ(wall.at("count").as_int(), 1);
  EXPECT_EQ(wall.at("p50_ms").as_double(), 0.0);
  EXPECT_EQ(wall.at("p99_ms").as_double(), 0.0);

  // record_perf true: a real (positive) per-point wall time.
  Campaign on;
  on.name = "wall_on";
  on.base = quick_base();
  set_by_path(on.base, "run.record_perf", obs::Json(true));
  std::filesystem::remove_all(dir);
  ASSERT_EQ(run_campaign(on, dir, 1, nullptr).ok, 1u);
  {
    std::ifstream in(dir + "/results.jsonl");
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const obs::Json entry = obs::parse_json(line);
    EXPECT_GT(entry.at("point_wall_ms").as_double(), 0.0);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mhp::scenario
