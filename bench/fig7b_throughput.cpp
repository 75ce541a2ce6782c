// Fig 7(b): throughput at the cluster head for a 30-sensor cluster under
// multi-hop polling vs S-MAC+AODV at several duty cycles.
//
// Paper series: total offered load 210 / 750 / 1200 B/s (7/25/40 B/s per
// sensor).  Expected shape: polling delivers 100% of the offered load at
// every point; S-MAC+AODV falls far short even with no sleep cycle, and
// collapses as the duty cycle shrinks.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "baseline/smac_simulation.hpp"
#include "exp/bench_json.hpp"
#include "exp/fig_common.hpp"
#include "exp/csv_out.hpp"
#include "exp/sweep.hpp"
#include "util/table.hpp"
#include "exp/flags.hpp"

namespace {

constexpr std::size_t kSensors = 30;

struct Point {
  double per_sensor_bps;
  double smac_duty;  // <0 → multi-hop polling
};

struct Result {
  double throughput_bps = 0.0;
  double active_pct = 0.0;
  std::uint64_t events = 0;
};

Result run_point(const Point& p) {
  using namespace mhp;
  using namespace mhp::exp;
  // One shared deployment as in the paper; average 3 traffic/schedule
  // seeds to tame the S-MAC contention noise.
  const Deployment dep = eval_deployment(kSensors, 42);
  constexpr int kSeeds = 3;
  Result out;
  for (int k = 0; k < kSeeds; ++k) {
    const std::uint64_t seed = 42 + static_cast<std::uint64_t>(k);
    if (p.smac_duty < 0.0) {
      PollingSimulation sim(dep, eval_protocol_config(seed),
                            p.per_sensor_bps);
      const auto rep = sim.run(Time::sec(70), Time::sec(10));
      out.throughput_bps += rep.throughput_bps / kSeeds;
      out.active_pct += 100.0 * rep.mean_active_fraction / kSeeds;
      out.events += rep.events_processed;
    } else {
      SmacConfig cfg;
      cfg.duty_cycle = p.smac_duty;
      cfg.seed = seed;
      SmacSimulation sim(dep, cfg, p.per_sensor_bps);
      const auto rep = sim.run(Time::sec(70), Time::sec(10));
      out.throughput_bps += rep.throughput_bps / kSeeds;
      out.active_pct += 100.0 * rep.mean_active_fraction / kSeeds;
      out.events += rep.events_processed;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mhp::exp::Flags("fig 7(b): delivered throughput vs offered load").parse(argc, argv);
  using namespace mhp;
  mhp::obs::RunRecorder recorder;

  const std::vector<double> loads = {7.0, 25.0, 40.0};  // per sensor B/s
  struct Scheme {
    std::string name;
    double duty;
  };
  const std::vector<Scheme> schemes = {
      {"Multihop Polling", -1.0},       {"SMAC (no sleep)", 1.0},
      {"SMAC (90% duty)", 0.9},         {"SMAC (70% duty)", 0.7},
      {"SMAC (50% duty)", 0.5},         {"SMAC (30% duty)", 0.3},
  };

  std::vector<Point> points;
  for (const auto& s : schemes)
    for (double l : loads) points.push_back({l, s.duty});

  const auto results = mhp::exp::sweep<Point, Result>(
      points, std::function<Result(const Point&)>(run_point));

  std::printf(
      "Fig 7(b) — throughput at the sink, 30-sensor cluster\n"
      "(offered totals 210/750/1200 B/s; paper: polling sustains 100%%\n"
      " throughput, S-MAC+AODV is far below offered load at every duty\n"
      " cycle; sensor active time shown for context)\n\n");

  Table table({"scheme", "offered 210 B/s", "offered 750 B/s",
               "offered 1200 B/s", "active %"});
  std::size_t i = 0;
  for (const auto& s : schemes) {
    std::vector<Cell> row{s.name};
    double active = 0.0;
    for (std::size_t l = 0; l < loads.size(); ++l, ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%7.1f B/s",
                    results[i].throughput_bps);
      row.push_back(std::string(buf));
      active = results[i].active_pct;  // report the high-load point
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%5.1f%%", active);
    row.push_back(std::string(buf));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_csv("fig7b_throughput.csv", table);
  for (const auto& r : results) recorder.add_events(r.events);
  mhp::exp::save_bench_json("fig7b_throughput", table, recorder);
  return 0;
}
