// Fig 7(a): percentage of active time of sensors as a function of cluster
// size and data generating rate, under multi-hop polling.
//
// Paper series: N = 10..100 sensors, per-sensor rates 20/40/60/80 B/s.
// Expected shape: active time grows with both N and rate; beyond a
// size/rate threshold the cluster saturates at 100% and loses packets.
#include <cstdio>
#include <functional>
#include <vector>

#include "exp/bench_json.hpp"
#include "exp/fig_common.hpp"
#include "exp/csv_out.hpp"
#include "exp/sweep.hpp"
#include "util/table.hpp"
#include "exp/flags.hpp"

namespace {

struct Point {
  std::size_t sensors;
  double rate_bps;
};

struct Result {
  double active_pct = 0.0;
  double delivery_pct = 0.0;
  std::uint64_t events = 0;
};

Result run_point(const Point& p) {
  using namespace mhp;
  using namespace mhp::exp;
  const std::uint64_t seed = p.sensors * 131 +
                             static_cast<std::uint64_t>(p.rate_bps);
  const Deployment dep = eval_deployment(p.sensors, seed);
  PollingSimulation sim(dep, eval_protocol_config(seed), p.rate_bps);
  const auto rep = sim.run(Time::sec(40), Time::sec(10));
  return Result{100.0 * rep.mean_active_fraction,
                100.0 * rep.delivery_ratio, rep.events_processed};
}

}  // namespace

int main(int argc, char** argv) {
  mhp::exp::Flags("fig 7(a): mean sensor active time vs cluster size").parse(argc, argv);
  using namespace mhp;
  mhp::obs::RunRecorder recorder;

  const std::vector<double> rates = {20.0, 40.0, 60.0, 80.0};
  std::vector<Point> points;
  for (std::size_t n = 10; n <= 100; n += 10)
    for (double r : rates) points.push_back({n, r});

  const auto results = mhp::exp::sweep<Point, Result>(
      points, std::function<Result(const Point&)>(run_point));

  std::printf(
      "Fig 7(a) — percentage of active time vs cluster size and rate\n"
      "(multi-hop polling; delivery%% in parentheses; paper: ~10-90%%\n"
      " rising with N and rate, saturation at high N x rate)\n\n");

  std::vector<std::string> headers{"sensors"};
  for (double r : rates) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g B/s", r);
    headers.push_back(buf);
  }
  Table table(headers);
  for (std::size_t c = 1; c < headers.size(); ++c) table.set_precision(c, 1);

  std::size_t i = 0;
  for (std::size_t n = 10; n <= 100; n += 10) {
    std::vector<Cell> row{static_cast<long long>(n)};
    for (std::size_t r = 0; r < rates.size(); ++r, ++i) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%5.1f%% (%5.1f%%)",
                    results[i].active_pct, results[i].delivery_pct);
      row.push_back(std::string(buf));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_csv("fig7a_active_time.csv", table);
  for (const auto& r : results) recorder.add_events(r.events);
  mhp::exp::save_bench_json("fig7a_active_time", table, recorder);
  return 0;
}
