// Profiler and sampler tests: span nesting and path interning, counter
// attachment, disabled-mode silence, drain-merge determinism across
// ThreadPool worker counts, Chrome trace-event export round-tripping the
// strict JSON parser, the sim-time metrics sampler's cadence, and the
// observability plumbing through scenarios (profile embed, byte-identity
// of reports when recording is on but the scenario does not ask for it).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/polling_simulation.hpp"
#include "core/routing.hpp"
#include "net/deployment.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "route/routing_engine.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "sim/runtime.hpp"
#include "sim/sampler.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

using obs::ProfileData;
using obs::ProfileEvent;
using obs::Profiler;

/// Every profiler test brackets itself with a discard-drain so events
/// left by other tests (or leaked ones from this test) never cross over.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().disable();
    Profiler::instance().drain();
  }
  void TearDown() override {
    Profiler::instance().disable();
    Profiler::instance().drain();
  }
};

const std::string& path_of(const ProfileData& data, const ProfileEvent& ev) {
  return data.paths.at(ev.path);
}

TEST_F(ProfilerTest, NestedSpansBuildSlashPathsAndCloseInnermostFirst) {
  Profiler::instance().enable();
  {
    MHP_SPAN("outer");
    {
      MHP_SPAN("inner");
      { MHP_SPAN("leaf"); }
    }
    { MHP_SPAN("inner"); }
  }
  Profiler::instance().disable();
  const ProfileData data = Profiler::instance().drain();

  ASSERT_EQ(data.events.size(), 4u);
  // Events append at close time, so the leaf closes first and the
  // outermost span last; the repeated "inner" reuses its interned path.
  EXPECT_EQ(path_of(data, data.events[0]), "outer/inner/leaf");
  EXPECT_EQ(path_of(data, data.events[1]), "outer/inner");
  EXPECT_EQ(path_of(data, data.events[2]), "outer/inner");
  EXPECT_EQ(data.events[1].path, data.events[2].path);
  EXPECT_EQ(path_of(data, data.events[3]), "outer");
  EXPECT_EQ(data.events[0].depth, 2u);
  EXPECT_EQ(data.events[1].depth, 1u);
  EXPECT_EQ(data.events[3].depth, 0u);
  // The parent's window contains its children.
  const ProfileEvent& leaf = data.events[0];
  const ProfileEvent& outer = data.events[3];
  EXPECT_LE(outer.start_ns, leaf.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, leaf.start_ns + leaf.dur_ns);
}

TEST_F(ProfilerTest, CountersMergeByNameAndSurviveToSummary) {
  static const char* kItems = "items";
  Profiler::instance().enable();
  {
    MHP_SPAN("work");
    MHP_SPAN_COUNTER(kItems, 3);
    MHP_SPAN_COUNTER(kItems, 4);  // same name: one slot, summed
    MHP_SPAN_COUNTER("extra", 1);
  }
  Profiler::instance().disable();
  const ProfileData data = Profiler::instance().drain();

  ASSERT_EQ(data.events.size(), 1u);
  const obs::ProfileSummary sum = obs::summarize_profile(data);
  const auto it = sum.spans.find("work");
  ASSERT_NE(it, sum.spans.end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_EQ(it->second.counters.at("items"), 7u);
  EXPECT_EQ(it->second.counters.at("extra"), 1u);
}

TEST_F(ProfilerTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(Profiler::enabled());
  {
    MHP_SPAN("ghost");
    MHP_SPAN_COUNTER("ghost_count", 42);
  }
  EXPECT_TRUE(Profiler::instance().drain().empty());
}

TEST_F(ProfilerTest, ZeroTimesKeepsCountsAndCounters) {
  Profiler::instance().enable();
  {
    MHP_SPAN("phase");
    MHP_SPAN_COUNTER("units", 5);
  }
  Profiler::instance().disable();
  const ProfileData data = Profiler::instance().drain();

  const obs::ProfileSummary live = obs::summarize_profile(data);
  EXPECT_GT(live.attributed_ms, 0.0);
  const obs::ProfileSummary zeroed =
      obs::summarize_profile(data, /*zero_times=*/true);
  EXPECT_EQ(zeroed.attributed_ms, 0.0);
  const auto& phase = zeroed.spans.at("phase");
  EXPECT_EQ(phase.total_ms, 0.0);
  EXPECT_EQ(phase.max_ms, 0.0);
  EXPECT_EQ(phase.p95_ms, 0.0);
  EXPECT_EQ(phase.count, 1u);
  EXPECT_EQ(phase.counters.at("units"), 5u);
}

/// Span (path, count) profile of a parallel solve is identical for any
/// worker count: the same work happens, only on different threads.
TEST_F(ProfilerTest, DrainMergeIsDeterministicAcrossWorkerCounts) {
  Rng rng(7);
  const Deployment dep =
      deploy_connected_uniform_square(40, 220.0, 60.0, rng);
  const ClusterTopology topo = disc_topology(dep, 60.0);
  std::vector<route::ClusterRouteJob> jobs(6);
  for (auto& job : jobs) {
    job.topo = &topo;
    job.demand.assign(40, 1);
  }

  const auto profile_counts = [&](std::size_t workers) {
    Profiler::instance().drain();
    Profiler::instance().enable();
    const std::vector<MinMaxLoadResult> solved =
        route::solve_clusters(jobs, workers);
    Profiler::instance().disable();
    const ProfileData data = Profiler::instance().drain();
    EXPECT_EQ(solved.size(), jobs.size());
    std::map<std::string, std::uint64_t> counts;
    for (const ProfileEvent& ev : data.events) ++counts[path_of(data, ev)];
    return counts;
  };

  // Compare pooled runs only: at workers == 1 the jobs run inline on the
  // caller thread, so "route/cluster" nests under "route/solve_clusters"
  // and the paths legitimately differ.
  const auto two_workers = profile_counts(2);
  const auto four_workers = profile_counts(4);
  EXPECT_FALSE(two_workers.empty());
  EXPECT_EQ(two_workers.at("route/cluster"), jobs.size());
  EXPECT_EQ(two_workers, four_workers);
}

TEST_F(ProfilerTest, ChromeTraceRoundTripsStrictParser) {
  Profiler::instance().enable();
  {
    MHP_SPAN("trace/outer");
    MHP_SPAN_COUNTER("marks", 2);
    { MHP_SPAN("trace/inner"); }
  }
  Profiler::instance().disable();
  const ProfileData data = Profiler::instance().drain();

  const std::string text = obs::chrome_trace_json(data).dump();
  const obs::Json doc = obs::parse_json(text);  // throws on any violation
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // One thread_name metadata event plus the two spans.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.at(0).at("ph").as_string(), "M");
  EXPECT_EQ(events.at(0).at("name").as_string(), "thread_name");
  bool saw_outer = false;
  for (std::size_t i = 1; i < events.size(); ++i) {
    const obs::Json& e = events.at(i);
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("pid").as_int(), 1);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    if (e.at("name").as_string() == "trace/outer") {
      saw_outer = true;
      EXPECT_EQ(e.at("args").at("marks").as_uint(), 2u);
    }
  }
  EXPECT_TRUE(saw_outer);
}

// ---------- sim-time metrics sampler ----------

TEST(MetricsSampler, TicksOnSimTimeCadence) {
  std::ostringstream out;
  RuntimeOptions opts;
  opts.samples_stream = &out;
  opts.sample_period = Time::seconds(1.0);
  SimRuntime rt(1, opts);
  ASSERT_NE(rt.sampler(), nullptr);
  rt.metrics().counter(metric::kPacketsGenerated).add(5);
  rt.sim().run_until(Time::seconds(4.5));
  EXPECT_EQ(rt.sampler()->samples_written(), 4u);

  std::istringstream lines(out.str());
  std::string line;
  double expected_t = 1.0;
  std::size_t seen = 0;
  while (std::getline(lines, line)) {
    const obs::Json sample = obs::parse_json(line);
    EXPECT_DOUBLE_EQ(sample.at("t_s").as_double(), expected_t);
    EXPECT_EQ(
        sample.at("counters").at(metric::kPacketsGenerated).as_uint(), 5u);
    // Watched-but-absent gauges read 0, not an error.
    EXPECT_DOUBLE_EQ(
        sample.at("gauges").at(sample::kAliveNodes).as_double(), 0.0);
    expected_t += 1.0;
    ++seen;
  }
  EXPECT_EQ(seen, 4u);
}

TEST(MetricsSampler, RefreshHooksPushLiveStateBeforeEachSample) {
  std::ostringstream out;
  SimRuntime rt(1);
  MetricsSampler& sampler =
      rt.install_sampler({.period = Time::seconds(2.0), .out = &out});
  sampler.watch_gauge(sample::kEnergyJ);
  double energy = 100.0;
  sampler.add_refresh_hook([&rt, &energy](Time now) {
    rt.metrics().gauge(sample::kEnergyJ).set(now, energy);
    energy -= 10.0;  // the next tick sees the decayed value
  });
  sampler.start();
  rt.sim().run_until(Time::seconds(4.5));
  EXPECT_EQ(sampler.samples_written(), 2u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_DOUBLE_EQ(
      obs::parse_json(line).at("gauges").at(sample::kEnergyJ).as_double(),
      100.0);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_DOUBLE_EQ(
      obs::parse_json(line).at("gauges").at(sample::kEnergyJ).as_double(),
      90.0);
}

TEST(MetricsSampler, NotInstalledWithoutSink) {
  SimRuntime rt(1);
  EXPECT_EQ(rt.sampler(), nullptr);
}

// ---------- scenario plumbing ----------

scenario::Scenario small_polling_scenario() {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kPolling);
  s.deployment.kind = scenario::DeploymentSpec::Kind::kRings;
  s.deployment.rings = 2;
  s.deployment.per_ring = 4;
  s.run.duration = Time::sec(15);
  s.run.warmup = Time::sec(5);
  s.run.record_perf = false;
  return s;
}

TEST(ScenarioProfile, RuntimeFieldsParseAndRoundTrip) {
  scenario::Scenario s = small_polling_scenario();
  s.profile = true;
  s.sample_period = Time::ms(500);
  const scenario::Scenario back = scenario::parse_scenario(
      scenario::scenario_to_json(s));
  EXPECT_TRUE(back.profile);
  EXPECT_EQ(back.sample_period, Time::ms(500));
}

/// Recording enabled globally, but the scenario does not opt in: the
/// emitted report must be byte-identical to a run with recording off.
TEST(ScenarioProfile, GlobalRecordingLeavesReportsByteIdentical) {
  const scenario::Scenario s = small_polling_scenario();
  const std::string plain = scenario::run_scenario(s).dump();

  Profiler::instance().drain();
  Profiler::instance().enable();
  const std::string while_recording = scenario::run_scenario(s).dump();
  Profiler::instance().disable();
  Profiler::instance().drain();

  EXPECT_EQ(plain, while_recording);
}

/// A 2×1 field of 8-sensor clusters, 15 s with 5 s of warm-up.
scenario::Scenario small_field_scenario() {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kMultiCluster);
  s.deployment.n_sensors = 8;
  s.deployment.side = 100.0;
  s.clusters.grid_x = 2;
  s.clusters.grid_y = 1;
  s.run.duration = Time::sec(15);
  s.run.warmup = Time::sec(5);
  s.run.record_perf = false;
  return s;
}

/// The StackPins cluster (24 sensors in a 200 m square, seed 1) at two
/// packets a cycle: some sensors split their flow over two paths, so the
/// rotating plan changes from cycle to cycle.
scenario::Scenario rotating_polling_scenario() {
  scenario::Scenario s = small_polling_scenario();
  s.deployment.kind = scenario::DeploymentSpec::Kind::kConnectedUniformSquare;
  s.deployment.n_sensors = 24;
  s.deployment.side = 200.0;
  s.deployment.seed = 1;
  s.traffic.rate_bps = 160.0;
  return s;
}

/// Both polling facades, profiled: the facade-level spans run once each,
/// the measured window's event counter is the report's event count, and
/// its plan_builds counter shows whether the rotating plan was rebuilt.
TEST(ScenarioProfile, ProfileEmbedsSummaryWithoutPerturbingReport) {
  struct Case {
    scenario::Scenario scenario;
    std::string prefix;
    std::vector<std::string> run_path;  // where the report keeps RunStats
    bool rebuilds;  // multi-path sensors under path rotation
  };
  const std::vector<Case> cases = {
      {small_polling_scenario(), "polling", {"report", "run"}, false},
      {rotating_polling_scenario(), "polling", {"report", "run"}, true},
      {small_field_scenario(), "mc", {"report", "totals", "run"}, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.prefix + (c.rebuilds ? " at 160 B/s" : ""));
    scenario::Scenario s = c.scenario;
    const std::string plain = scenario::run_scenario(s).dump();

    s.profile = true;
    const obs::Json doc = scenario::run_scenario(s);
    const obs::Json* profile = doc.find("profile");
    ASSERT_NE(profile, nullptr);
    const obs::Json* spans = profile->find("spans");
    ASSERT_NE(spans, nullptr);
    EXPECT_NE(spans->find("deploy"), nullptr);
    for (const char* phase :
         {"/setup", "/setup/channel", "/setup/topology", "/setup/routing",
          "/warmup", "/measured", "/collect"}) {
      const obs::Json* span = spans->find(c.prefix + phase);
      ASSERT_NE(span, nullptr) << c.prefix + phase;
      EXPECT_EQ(span->at("count").as_uint(), 1u) << c.prefix + phase;
    }
    // record_perf false zeroes the profile's wall times too (counts stay).
    EXPECT_EQ(profile->at("attributed_ms").as_double(), 0.0);

    const obs::Json* run = &doc;
    for (const std::string& key : c.run_path) run = &run->at(key);
    const obs::Json& measured =
        spans->at(c.prefix + "/measured").at("counters");
    EXPECT_EQ(measured.at("events").as_uint(),
              run->at("events_processed").as_uint());
    // One path per sensor (20 B/s is one packet a cycle), or no rotation
    // (a field): the plan built at set-up serves every cycle.
    if (c.rebuilds)
      EXPECT_GT(measured.at("plan_builds").as_uint(), 0u);
    else
      EXPECT_EQ(measured.at("plan_builds").as_uint(), 0u);

    // The rest of the envelope is exactly the unprofiled document.
    obs::Json expected = obs::parse_json(plain);
    expected.set("profile", *profile);
    EXPECT_EQ(doc.dump(), expected.dump());
  }
}

/// The S-MAC facade, profiled: its warm-up and measured spans run once
/// each, the measured window counts the report's events and the re-armed
/// timers that took over their firing event's heap root, and the rest of
/// the envelope is exactly the unprofiled document.
TEST(ScenarioProfile, SmacSpansCountEventsAndRootHandoffs) {
  scenario::Scenario s =
      scenario::default_scenario(scenario::StackKind::kSmac);
  s.deployment.kind = scenario::DeploymentSpec::Kind::kRings;
  s.deployment.rings = 2;
  s.deployment.per_ring = 4;
  s.run.duration = Time::sec(15);
  s.run.warmup = Time::sec(5);
  s.run.record_perf = false;
  const std::string plain = scenario::run_scenario(s).dump();

  s.profile = true;
  const obs::Json doc = scenario::run_scenario(s);
  const obs::Json* profile = doc.find("profile");
  ASSERT_NE(profile, nullptr);
  const obs::Json& spans = profile->at("spans");
  for (const char* path : {"smac/warmup", "smac/measured"}) {
    const obs::Json* span = spans.find(path);
    ASSERT_NE(span, nullptr) << path;
    EXPECT_EQ(span->at("count").as_uint(), 1u) << path;
  }
  const obs::Json& measured = spans.at("smac/measured").at("counters");
  const std::uint64_t events = measured.at("events").as_uint();
  EXPECT_EQ(events,
            doc.at("report").at("run").at("events_processed").as_uint());
  const std::uint64_t handoffs = measured.at("root_handoffs").as_uint();
  EXPECT_GT(handoffs, 0u);
  EXPECT_LE(handoffs, events);

  obs::Json expected = obs::parse_json(plain);
  expected.set("profile", *profile);
  EXPECT_EQ(doc.dump(), expected.dump());
}

TEST_F(ProfilerTest, OracleProbeSpanCountsUniverseAndGroups) {
  const Deployment dep = deploy_rings(2, 4, 40.0);
  Profiler::instance().enable();
  const PollingSimulation sim(dep, ProtocolConfig{}, 20.0);
  Profiler::instance().disable();
  const obs::ProfileSummary sum = obs::summarize_profile(
      Profiler::instance().drain());
  const auto& probe = sum.spans.at("polling/setup/oracle_probe");
  EXPECT_EQ(probe.count, 1u);
  const std::uint64_t universe = probe.counters.at("universe");
  EXPECT_GT(universe, 0u);
  EXPECT_EQ(universe, sim.oracle().universe().size());
  EXPECT_EQ(probe.counters.at("groups"),
            MeasuredOracle::probe_count(universe, sim.oracle().order()));
}

TEST(ScenarioProfile, TraceSinkReceivesValidChromeTrace) {
  scenario::Scenario s = small_polling_scenario();
  s.profile = true;
  std::ostringstream trace;
  scenario::RunScenarioOptions opts;
  opts.trace_out = &trace;
  scenario::run_scenario(s, opts);

  const obs::Json doc = obs::parse_json(trace.str());
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  EXPECT_GT(events.size(), 1u);
  bool saw_setup = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events.at(i);
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "polling/setup")
      saw_setup = true;
  }
  EXPECT_TRUE(saw_setup);
}

TEST(ScenarioProfile, SamplesSinkFollowsScenarioPeriod) {
  scenario::Scenario s = small_polling_scenario();
  s.sample_period = Time::seconds(5.0);
  std::ostringstream samples;
  scenario::RunScenarioOptions opts;
  opts.samples_out = &samples;
  scenario::run_scenario(s, opts);

  std::istringstream lines(samples.str());
  std::string line;
  std::size_t seen = 0;
  while (std::getline(lines, line)) {
    const obs::Json sample = obs::parse_json(line);
    EXPECT_NE(sample.find("t_s"), nullptr);
    EXPECT_NE(sample.at("gauges").find(sample::kAliveNodes), nullptr);
    ++seen;
  }
  // 5 s warmup + 15 s measurement = 20 s of sim time, 5 s period:
  // samples at t = 5, 10, 15 and possibly the final boundary tick.
  EXPECT_GE(seen, 3u);
  EXPECT_LE(seen, 4u);
}

// ---------- oracle cache stats in reports ----------

TEST(OracleReport, PollingReportCarriesCacheBlock) {
  scenario::Scenario s = small_polling_scenario();
  const obs::Json doc = scenario::run_scenario(s);
  const obs::Json* body = doc.find("report");
  ASSERT_NE(body, nullptr);
  const obs::Json* oracle = body->find("oracle");
  ASSERT_NE(oracle, nullptr);
  EXPECT_GT(oracle->at("hits").as_uint() + oracle->at("misses").as_uint(),
            0u);
  const double rate = oracle->at("hit_rate").as_double();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  EXPECT_LE(oracle->at("screened").as_uint(), oracle->at("hits").as_uint());
}

}  // namespace
}  // namespace mhp
