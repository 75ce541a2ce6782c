// Hot-path scaling trajectory: topology construction (spatial grid vs the
// O(n²) brute-force reference), min-max-load routing (wall time plus the
// engine's probe and Dinic work counts), one full greedy polling cycle,
// and an event-kernel churn phase over n ∈ {50, 200, 500, 1000, 5000,
// 20000, 100000} sensors at constant density.
//
// The polling cycle runs the offline greedy scheduler through a
// pair-screening CachedOracle over the disc interference model, so the
// emitted BENCH_perf.json carries the numbers the ROADMAP's scaling story
// needs: wall time per phase, scheduled transmissions per second, and the
// oracle cache hit rate.  Each row also records *generous* per-phase
// budgets (phase ms × 20) plus the tx/sec floor (÷ 20) that CI's
// perf-smoke job checks future runs against.  The O(n²) reference
// column (brute-force topology) is only measured up to n = 1000; beyond
// that it reads 0 = skipped.  The "run" block records the
// number of cores the process may use, since every budget and floor is
// only meaningful beside the machine it was measured on.
//
//   --smoke               small points only (n ∈ {50, 200}) for CI
//   --baseline <path>     after running, compare every measured point's
//                         tx/sec and per-phase times against the
//                         floor/budgets recorded in <path> for that
//                         point; exit 1 on regression
//   --profile-out <path>  record profiler spans across all points and
//                         write Chrome trace-event JSON here; also fills
//                         the span_*_ms columns (0 when not profiling)
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "core/interference.hpp"
#include "core/routing.hpp"
#include "exp/bench_json.hpp"
#include "exp/csv_out.hpp"
#include "net/deployment.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "route/routing_engine.hpp"
#include "sim/simulator.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "exp/flags.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// CPUs this process may run on (its affinity mask), at least 1.
int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

struct Point {
  std::size_t sensors;
};

struct Result {
  double topo_grid_ms = 0.0;
  double topo_brute_ms = 0.0;  // 0 = skipped (n > 1000)
  double topo_speedup = 0.0;
  double routing_ms = 0.0;
  // The routing solve's SolveStats: δ probes and Dinic work over them.
  long long route_probes = 0;
  long long route_phases = 0;
  long long route_augmentations = 0;
  long long route_arc_scans = 0;
  long long polling_slots = 0;
  long long polling_tx = 0;
  double polling_ms = 0.0;
  double tx_per_sec = 0.0;
  double cache_hit_rate = 0.0;
  long long screened = 0;  // pair-screen rejections (subset of hits)
  double floor_tx_per_sec = 0.0;
  double budget_topo_ms = 0.0;
  double budget_routing_ms = 0.0;
  double budget_polling_ms = 0.0;
  double kernel_ms = 0.0;  // event-kernel churn (n polls, cancel-heavy)
  double budget_kernel_ms = 0.0;
  /// Span-attributed per-phase wall time from the profiler (the
  /// "bench/*" spans below); 0 when not run under --profile-out.
  double span_topo_ms = 0.0;     // per grid rep
  double span_routing_ms = 0.0;  // balanced routing solve
  double span_polling_ms = 0.0;  // offline greedy cycle
  double span_kernel_ms = 0.0;   // simulator churn drain
};

constexpr double kSensorRange = 60.0;
/// ~1000 m² per sensor keeps density (and so expected node degree ≈ 11)
/// constant across n: the grid path stays O(n) while brute force grows
/// O(n²) — exactly the scaling the speedup column demonstrates.
double side_for(std::size_t n) {
  return std::sqrt(1000.0 * static_cast<double>(n));
}

/// Event-kernel churn: the poll-timeout retry pattern at size n.  Each of
/// 64 concurrent "poll lanes" arms a timeout, gets the reply first (which
/// cancels the timeout) and immediately arms the next poll — one push +
/// cancel + push + pop per delivered poll, with the live-event count
/// pinned at 2×lanes.  This is exactly the workload the arena kernel must
/// keep allocation-free and the lazy-cancel kernel bloated on; its budget
/// column lets CI fail on kernel regressions at n=200.
double kernel_churn_ms(std::size_t sensors) {
  using namespace mhp;
  // 16 poll rounds per sensor: enough churn that even the n=200 smoke
  // point measures hundreds of microseconds, not timer noise.
  const std::size_t polls = sensors * 16;
  Simulator sim;
  struct Lane {
    Simulator* sim = nullptr;
    std::size_t remaining = 0;
    EventId timeout = 0;
    std::uint64_t timeouts_fired = 0;  // must stay 0: replies beat timeouts
    void poll() {
      if (remaining == 0) return;
      --remaining;
      timeout = sim->after(Time::us(10), [this] { ++timeouts_fired; });
      sim->after(Time::us(2), [this] {
        sim->cancel(timeout);
        poll();
      });
    }
  };
  constexpr std::size_t kLanes = 64;
  const std::size_t per_lane = (polls + kLanes - 1) / kLanes;
  // Fixed-size vector: lanes self-schedule via `this`, so no reallocation.
  std::vector<Lane> lanes(kLanes);
  const auto t0 = Clock::now();
  std::uint64_t executed = 0;
  {
    MHP_SPAN("bench/kernel");
    for (auto& lane : lanes) {
      lane.sim = &sim;
      lane.remaining = per_lane;
      lane.poll();
    }
    executed = sim.run();
  }
  const double ms = ms_since(t0);
  // Only the replies execute; every timeout must have been cancelled.
  MHP_REQUIRE(executed == per_lane * kLanes, "kernel churn lost events");
  for (const auto& lane : lanes)
    MHP_REQUIRE(lane.timeouts_fired == 0, "kernel churn timeout fired");
  return ms;
}

Result run_point(const Point& p) {
  using namespace mhp;
  Result out;
  Rng rng(0x9e1f + p.sensors);
  const Deployment dep = deploy_connected_uniform_square(
      p.sensors, side_for(p.sensors), kSensorRange, rng);

  // O(n²) reference measurements stop paying their way past n=1000.
  const bool reference = p.sensors <= 1000;

  // Topology: grid vs brute force, best-effort amortized over repeats.
  const int grid_reps = p.sensors > 5000 ? 3 : 10;
  const int brute_reps = p.sensors > 300 ? 3 : 10;
  std::size_t edges_grid = 0, edges_brute = 0;
  auto t0 = Clock::now();
  for (int r = 0; r < grid_reps; ++r) {
    MHP_SPAN("bench/topology");
    edges_grid = disc_topology(dep, kSensorRange).sensor_links().edge_count();
  }
  out.topo_grid_ms = ms_since(t0) / grid_reps;
  if (reference) {
    t0 = Clock::now();
    for (int r = 0; r < brute_reps; ++r)
      edges_brute =
          disc_topology_brute_force(dep, kSensorRange).sensor_links()
              .edge_count();
    out.topo_brute_ms = ms_since(t0) / brute_reps;
    MHP_REQUIRE(edges_grid == edges_brute, "grid and brute graphs disagree");
    out.topo_speedup =
        out.topo_grid_ms > 0.0 ? out.topo_brute_ms / out.topo_grid_ms : 0.0;
  }

  // Routing: one min-max-load solve, unit demand everywhere.
  const ClusterTopology topo = disc_topology(dep, kSensorRange);
  const std::vector<std::int64_t> demand(p.sensors, 1);
  route::RoutingEngine engine;
  t0 = Clock::now();
  MinMaxLoadResult solution = [&] {
    MHP_SPAN("bench/routing");
    return engine.solve_balanced(topo, demand);
  }();
  out.routing_ms = ms_since(t0);
  const route::SolveStats& stats = engine.last_stats();
  out.route_probes = stats.probes;
  out.route_phases = stats.phases;
  out.route_augmentations = stats.augmentations;
  out.route_arc_scans = stats.arc_scans;

  const RelayPlan plan(topo, std::move(solution));

  // One polling cycle: drain every sensor's packet through the greedy
  // scheduler, disc-model interference behind the pair-screening cache
  // (the disc model is monotone, so screening is sound).
  std::vector<std::vector<NodeId>> paths;
  paths.reserve(p.sensors);
  for (NodeId s = 0; s < p.sensors; ++s)
    paths.push_back(plan.path_for_cycle(s, 0).hops);
  const DiscModelOracle truth(dep.positions, kSensorRange, 3);
  const CachedOracle cached(truth, CachedOracle::PairScreen::kOn);
  t0 = Clock::now();
  // The default 1M-slot guard exists for pathological loss models; a
  // loss-free n=100000 cycle legitimately needs ~3M slots (path length
  // grows with the √n field side), so scale the cap with n.
  const std::size_t max_slots =
      std::max<std::size_t>(1'000'000, 64 * p.sensors);
  const OfflineRunResult run = [&] {
    MHP_SPAN("bench/polling");
    return run_offline(cached, paths, {}, max_slots);
  }();
  out.polling_ms = ms_since(t0);
  MHP_REQUIRE(run.all_delivered, "offline polling cycle did not finish");
  out.polling_slots = static_cast<long long>(run.slots);
  out.polling_tx = static_cast<long long>(run.transmissions);
  out.tx_per_sec = out.polling_ms > 0.0
                       ? 1000.0 * static_cast<double>(run.transmissions) /
                             out.polling_ms
                       : 0.0;
  out.cache_hit_rate = cached.hit_rate();
  out.screened = static_cast<long long>(cached.screened());
  out.kernel_ms = kernel_churn_ms(p.sensors);
  out.floor_tx_per_sec = out.tx_per_sec / 20.0;
  out.budget_topo_ms = out.topo_grid_ms * 20.0;
  out.budget_routing_ms = out.routing_ms * 20.0;
  out.budget_polling_ms = out.polling_ms * 20.0;
  out.budget_kernel_ms = out.kernel_ms * 20.0;
  return out;
}

/// One point's gates from the committed baseline.  Absent fields read -1
/// (their check is skipped), so older baselines still gate.  Every point
/// present in both the baseline and the current run is gated: CI's smoke
/// run checks n=200, a full run additionally checks the n=100000 row.
struct BaselineGates {
  double floor_tx_per_sec = -1.0;
  double budget_topo_ms = -1.0;
  double budget_routing_ms = -1.0;
  double budget_polling_ms = -1.0;
  double budget_kernel_ms = -1.0;
};

std::map<long long, BaselineGates> baseline_gates(const std::string& path,
                                                  bool& found) {
  std::map<long long, BaselineGates> gates;
  found = false;
  std::ifstream in(path);
  if (!in) return gates;
  std::ostringstream buf;
  buf << in.rdbuf();
  const mhp::obs::Json doc = mhp::obs::parse_json(buf.str());
  const mhp::obs::Json* points = doc.find("points");
  if (points == nullptr || !points->is_array()) return gates;
  for (std::size_t i = 0; i < points->size(); ++i) {
    const mhp::obs::Json& row = points->at(i);
    const mhp::obs::Json* n = row.find("sensors");
    if (n == nullptr) continue;
    BaselineGates g;
    const auto read = [&row](const char* key, double& dst) {
      if (const mhp::obs::Json* v = row.find(key)) dst = v->as_double();
    };
    read("floor_tx_per_sec", g.floor_tx_per_sec);
    read("budget_topo_ms", g.budget_topo_ms);
    read("budget_routing_ms", g.budget_routing_ms);
    read("budget_polling_ms", g.budget_polling_ms);
    read("budget_kernel_ms", g.budget_kernel_ms);
    if (n->as_int() == 200 && g.floor_tx_per_sec >= 0.0) found = true;
    gates.emplace(n->as_int(), g);
  }
  return gates;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mhp;
  mhp::exp::Flags flags("hot-path scaling bench (topology, routing, polling)");
  flags.flag("--smoke", "reduced point set for CI")
      .option("--baseline", "PATH", "committed BENCH_perf.json to gate against")
      .option("--profile-out", "PATH",
              "record profiler spans, write Chrome trace-event JSON here");
  flags.parse(argc, argv);
  const bool smoke = flags.has("--smoke");
  const std::string baseline_path = flags.value("--baseline");
  const std::string profile_path = flags.value("--profile-out");
  // Parse the baseline up front: this run overwrites BENCH_perf.json in
  // the working directory, and CI points --baseline at the committed copy.
  std::map<long long, BaselineGates> gates;
  if (!baseline_path.empty()) {
    bool found = false;
    gates = baseline_gates(baseline_path, found);
    if (!found) {
      std::fprintf(stderr, "perf_scaling: no n=200 floor in baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
  }
  obs::RunRecorder recorder;

  std::vector<Point> points;
  if (smoke) {
    points = {{50}, {200}};
  } else {
    points = {{50}, {200}, {500}, {1000}, {5000}, {20000}, {100000}};
  }

  // Sequential on purpose: the columns are wall-clock timings and thread
  // contention would corrupt them (determinism of the *results* under
  // exp::sweep threading is pinned separately in tests/test_exp.cpp).
  const bool profiling = !profile_path.empty();
  obs::Profiler& prof = obs::Profiler::instance();
  if (profiling) {
    prof.drain();
    prof.enable();
  }
  obs::ProfileData all_spans;
  std::vector<Result> results;
  results.reserve(points.size());
  for (const Point& p : points) {
    results.push_back(run_point(p));
    if (!profiling) continue;
    // Per-point drain so the span columns attribute to this point only;
    // events accumulate for the whole-run trace export (path ids are
    // global intern indices, stable across drains).
    obs::ProfileData data = prof.drain();
    const obs::ProfileSummary sum = obs::summarize_profile(data);
    const auto span_ms = [&sum](const char* path) {
      const auto it = sum.spans.find(path);
      return it == sum.spans.end()
                 ? 0.0
                 : it->second.total_ms /
                       static_cast<double>(it->second.count);
    };
    Result& r = results.back();
    r.span_topo_ms = span_ms("bench/topology");
    r.span_routing_ms = span_ms("bench/routing");
    r.span_polling_ms = span_ms("bench/polling");
    r.span_kernel_ms = span_ms("bench/kernel");
    all_spans.paths = std::move(data.paths);
    all_spans.events.insert(all_spans.events.end(), data.events.begin(),
                            data.events.end());
  }
  if (profiling) {
    prof.disable();
    std::ofstream trace(profile_path);
    if (trace.is_open()) {
      obs::chrome_trace_json(all_spans).write(trace, -1);
      trace << '\n';
    } else {
      std::fprintf(stderr, "perf_scaling: cannot write %s\n",
                   profile_path.c_str());
    }
  }

  std::printf(
      "Hot-path scaling — spatial-grid topology, min-max-load routing "
      "engine, pair-screening cached oracle, greedy polling\n"
      "(speedups = reference / production time; 0 = reference skipped)\n\n");

  Table table({"sensors", "topo grid ms", "topo brute ms", "topo_speedup",
               "routing ms", "route_probes", "route_phases",
               "route_augmentations", "route_arc_scans",
               "polling_slots", "polling tx", "polling ms", "tx_per_sec",
               "cache_hit_rate", "screened", "floor_tx_per_sec",
               "budget_topo_ms", "budget_routing_ms", "budget_polling_ms",
               "span_topo_ms", "span_routing_ms", "span_polling_ms",
               "kernel ms", "budget_kernel_ms", "span_kernel_ms"});
  table.set_precision(1, 3);
  table.set_precision(2, 3);
  table.set_precision(3, 1);
  table.set_precision(4, 2);
  table.set_precision(11, 2);
  table.set_precision(12, 0);
  table.set_precision(13, 3);
  table.set_precision(15, 0);
  table.set_precision(16, 1);
  table.set_precision(17, 1);
  table.set_precision(18, 1);
  table.set_precision(19, 3);
  table.set_precision(20, 2);
  table.set_precision(21, 2);
  table.set_precision(22, 3);
  table.set_precision(23, 1);
  table.set_precision(24, 3);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Result& r = results[i];
    table.add_row({static_cast<long long>(points[i].sensors),
                   r.topo_grid_ms, r.topo_brute_ms, r.topo_speedup,
                   r.routing_ms, r.route_probes, r.route_phases,
                   r.route_augmentations, r.route_arc_scans,
                   r.polling_slots, r.polling_tx, r.polling_ms,
                   r.tx_per_sec, r.cache_hit_rate, r.screened,
                   r.floor_tx_per_sec, r.budget_topo_ms,
                   r.budget_routing_ms, r.budget_polling_ms,
                   r.span_topo_ms, r.span_routing_ms, r.span_polling_ms,
                   r.kernel_ms, r.budget_kernel_ms, r.span_kernel_ms});
    recorder.add_events(static_cast<std::uint64_t>(r.polling_tx));
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_csv("perf_scaling.csv", table);
  obs::Json report = mhp::exp::bench_json("perf", table, recorder);
  report.find("run")->set("cores", obs::Json(usable_cores()));
  if (obs::save_json("BENCH_perf.json", report))
    std::printf("(bench report saved to BENCH_perf.json)\n");

  if (!baseline_path.empty()) {
    bool ok = true;
    std::size_t gated = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto it = gates.find(static_cast<long long>(points[i].sensors));
      if (it == gates.end()) continue;
      const long long n = it->first;
      const BaselineGates& g = it->second;
      const Result& r = results[i];
      ++gated;
      if (g.floor_tx_per_sec >= 0.0 && r.tx_per_sec < g.floor_tx_per_sec) {
        std::fprintf(stderr,
                     "perf_scaling: REGRESSION — n=%lld tx/sec %.0f below "
                     "baseline floor %.0f\n",
                     n, r.tx_per_sec, g.floor_tx_per_sec);
        ok = false;
      }
      const auto check_budget = [&](const char* phase, double ms,
                                    double budget) {
        if (budget < 0.0 || ms <= budget) return;
        std::fprintf(stderr,
                     "perf_scaling: REGRESSION — n=%lld %s %.2f ms over "
                     "baseline budget %.2f ms\n",
                     n, phase, ms, budget);
        ok = false;
      };
      check_budget("topology", r.topo_grid_ms, g.budget_topo_ms);
      check_budget("routing", r.routing_ms, g.budget_routing_ms);
      check_budget("polling", r.polling_ms, g.budget_polling_ms);
      check_budget("kernel", r.kernel_ms, g.budget_kernel_ms);
    }
    MHP_REQUIRE(gated > 0, "no baseline-gated point in this run");
    if (!ok) return 1;
    std::printf(
        "perf gates ok: %zu point(s) at or above the tx/sec floor and "
        "within every phase budget\n",
        gated);
  }
  return 0;
}
