// Fig 7(c): cluster life time ratio, sectored vs unsectored, while
// sustaining 100% throughput.
//
// Paper series: N = 10..50; ratio always > 1 and growing with N (larger
// clusters split into more sectors).  Lifetime = battery / worst sensor
// power; the battery cancels in the ratio.
#include <algorithm>
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
};

struct Result {
  double ratio = 0.0;
  double sectors = 0.0;
  double delivery_sectored = 0.0;
  std::uint64_t events = 0;
};

/// Average over a few deployments per cluster size to smooth topology
/// noise (the paper plots one curve; we report the mean of 3 seeds).
Result run_point(const Point& p) {
  using namespace mhp;
  using namespace mhp::exp;
  constexpr double kRate = 20.0;  // low rate: both variants deliver 100%
  constexpr int kSeeds = 3;

  Result out;
  for (int k = 0; k < kSeeds; ++k) {
    const std::uint64_t seed = 7700 + p.sensors * 10 +
                               static_cast<std::uint64_t>(k);
    const Deployment dep = eval_deployment(p.sensors, seed);

    PollingSimulation plain(dep, eval_protocol_config(seed, false), kRate);
    const auto rp = plain.run(Time::sec(40), Time::sec(10));

    PollingSimulation sectored(dep, eval_protocol_config(seed, true),
                               kRate);
    const auto rs = sectored.run(Time::sec(40), Time::sec(10));

    out.events += rp.events_processed + rs.events_processed;
    out.sectors += static_cast<double>(rs.sectors) / kSeeds;
    out.delivery_sectored +=
        std::min(100.0, 100.0 * rs.delivery_ratio) / kSeeds;
    // lifetime ∝ 1 / max sensor power; battery capacity cancels.
    out.ratio += rp.max_sensor_power_w / rs.max_sensor_power_w / kSeeds;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mhp::exp::Flags("fig 7(c): sectoring effect on cluster lifetime").parse(argc, argv);
  using namespace mhp;
  mhp::obs::RunRecorder recorder;

  std::vector<Point> points;
  for (std::size_t n = 10; n <= 50; n += 5) points.push_back({n});

  const auto results = mhp::exp::sweep<Point, Result>(
      points, std::function<Result(const Point&)>(run_point));

  std::printf(
      "Fig 7(c) — lifetime ratio (with sectors vs without), 100%% delivery\n"
      "(paper: ratio 1.55..2.05, increasing with cluster size)\n\n");

  Table table({"sensors", "sectors", "lifetime ratio", "delivery %"});
  table.set_precision(1, 1);
  table.set_precision(2, 2);
  table.set_precision(3, 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    table.add_row({static_cast<long long>(points[i].sensors),
                   results[i].sectors, results[i].ratio,
                   results[i].delivery_sectored});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_csv("fig7c_sector_lifetime.csv", table);
  for (const auto& r : results) recorder.add_events(r.events);
  mhp::exp::save_bench_json("fig7c_sector_lifetime", table, recorder);
  return 0;
}
