// Fig 7(c) companion: cluster lifetime and delivery when a relay dies
// mid-run and the head repairs routes around it.
//
// For each cluster size the busiest relay (most dependents in the
// balanced plan) is killed at t=20s with recovery enabled; the same
// deployment also runs fault-free as the control.  Reported: the
// degradation block (delivery before/after the repair, replans, orphaned
// sensors) and the lifetime ratio faulted vs clean (lifetime = battery /
// worst sensor power; the battery cancels in the ratio).
//
// `--smoke` runs a single small point (CI sanity check).
// `--profile-out PATH` records profiler spans across the whole sweep
// (repairs show under "polling/replan") and writes Chrome trace-event
// JSON.
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "exp/bench_json.hpp"
#include "exp/csv_out.hpp"
#include "exp/fig_common.hpp"
#include "exp/sweep.hpp"
#include "obs/profiler.hpp"
#include "util/table.hpp"
#include "exp/flags.hpp"

namespace {

struct Point {
  std::size_t sensors;
};

struct Result {
  long long victim = -1;
  double replans = 0.0;
  double orphaned = 0.0;
  double delivery_before = 0.0;  // percent
  double delivery_after = 0.0;   // percent
  double delivery_clean = 0.0;   // percent, fault-free control
  double lifetime_ratio = 0.0;   // faulted lifetime / clean lifetime
  std::uint64_t events = 0;
};

Result run_point(const Point& p) {
  using namespace mhp;
  using namespace mhp::exp;
  constexpr double kRate = 20.0;
  const std::uint64_t seed = 7900 + p.sensors * 10;
  const Deployment dep = eval_deployment(p.sensors, seed);

  Result out;

  // Fault-free control; its relay plan also tells us whom to kill (the
  // faulted run is seeded identically, so set-up yields the same plan).
  PollingSimulation clean(dep, eval_protocol_config(seed), kRate);
  NodeId victim = 0;
  std::size_t victim_deps = 0;
  for (NodeId s = 0; s < dep.num_sensors(); ++s) {
    const std::size_t deps = clean.relay_plan().dependents(s, 0).size();
    if (deps > victim_deps) {
      victim_deps = deps;
      victim = s;
    }
  }
  const auto rc = clean.run(Time::sec(40), Time::sec(10));

  ProtocolConfig cfg = eval_protocol_config(seed);
  cfg.faults.kill_at(victim, Time::sec(20));
  cfg.recovery.enabled = true;
  PollingSimulation faulted(dep, cfg, kRate);
  const auto rf = faulted.run(Time::sec(40), Time::sec(10));

  out.victim = static_cast<long long>(victim);
  out.events = rc.events_processed + rf.events_processed;
  out.delivery_clean = 100.0 * rc.delivery_ratio;
  if (rf.degradation) {
    out.replans = static_cast<double>(rf.degradation->replans);
    out.orphaned = static_cast<double>(rf.degradation->orphaned_sensors);
    out.delivery_before = 100.0 * rf.degradation->delivery_before;
    out.delivery_after = 100.0 * rf.degradation->delivery_after;
  }
  // lifetime ∝ 1 / max sensor power; battery capacity cancels.
  out.lifetime_ratio =
      rf.max_sensor_power_w > 0.0
          ? rc.max_sensor_power_w / rf.max_sensor_power_w
          : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mhp;
  mhp::exp::Flags flags("fig 7(c) companion: relay death with head repair");
  flags.flag("--smoke", "single point for CI")
      .option("--profile-out", "PATH",
              "record profiler spans, write Chrome trace-event JSON here");
  flags.parse(argc, argv);
  const bool smoke = flags.has("--smoke");
  const std::string profile_path = flags.value("--profile-out");
  mhp::obs::RunRecorder recorder;

  std::vector<Point> points;
  if (smoke) {
    points.push_back({14});
  } else {
    for (std::size_t n = 10; n <= 50; n += 10) points.push_back({n});
  }

  const bool profiling = !profile_path.empty();
  obs::Profiler& prof = obs::Profiler::instance();
  if (profiling) {
    prof.drain();
    prof.enable();
  }
  const auto results = mhp::exp::sweep<Point, Result>(
      points, std::function<Result(const Point&)>(run_point));
  if (profiling) {
    // The sweep has joined: a quiescent point, so one drain collects
    // every worker's spans.
    prof.disable();
    const obs::ProfileData spans = prof.drain();
    std::ofstream trace(profile_path);
    if (trace.is_open()) {
      obs::chrome_trace_json(spans).write(trace, -1);
      trace << '\n';
    } else {
      std::fprintf(stderr, "fig7c_faulted_lifetime: cannot write %s\n",
                   profile_path.c_str());
    }
  }

  std::printf(
      "Fig 7(c) companion — mid-run relay death with head-driven repair\n"
      "(delivery after repair should stay close to the fault-free "
      "control)\n\n");

  Table table({"sensors", "victim", "replans", "orphans", "del before %",
               "del after %", "del clean %", "lifetime ratio"});
  table.set_precision(2, 0);
  table.set_precision(3, 0);
  table.set_precision(4, 1);
  table.set_precision(5, 1);
  table.set_precision(6, 1);
  table.set_precision(7, 2);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Result& r = results[i];
    table.add_row({static_cast<long long>(points[i].sensors), r.victim,
                   r.replans, r.orphaned, r.delivery_before,
                   r.delivery_after, r.delivery_clean, r.lifetime_ratio});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_csv("fig7c_faulted_lifetime.csv", table);
  for (const auto& r : results) recorder.add_events(r.events);
  mhp::exp::save_bench_json("fig7c_faulted_lifetime", table, recorder);
  return 0;
}
