// Ablation: min-max-load flow routing (§III-A) vs hop-count shortest
// paths.  The paper's routing choice exists to flatten the worst sensor's
// relaying burden; this quantifies the gain in max load and the implied
// first-death lifetime.
#include <cstdio>
#include <vector>

#include "net/deployment.hpp"
#include "route/routing_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "exp/bench_json.hpp"
#include "exp/flags.hpp"

using namespace mhp;

int main(int argc, char** argv) {
  mhp::exp::Flags("ablation: balanced max-flow vs shortest-path routing").parse(argc, argv);
  mhp::obs::RunRecorder recorder;
  std::printf(
      "Ablation — load-balanced (max-flow) routing vs shortest paths\n"
      "(uniform clusters, 1 packet/sensor/cycle; lifetime ∝ 1/max load)\n\n");

  Table table({"sensors", "balanced max load", "shortest max load",
               "load ratio", "lifetime gain %"});
  table.set_precision(1, 2);
  table.set_precision(2, 2);
  table.set_precision(3, 2);
  table.set_precision(4, 1);

  for (std::size_t n = 10; n <= 60; n += 10) {
    Accumulator balanced, shortest;
    for (int trial = 0; trial < 20; ++trial) {
      Rng rng(n * 1000 + static_cast<std::uint64_t>(trial));
      const Deployment dep =
          deploy_connected_uniform_square(n, 200.0, 60.0, rng);
      const ClusterTopology topo = disc_topology(dep, 60.0);
      const std::vector<std::int64_t> demand(n, 1);
      const auto flow = route::RoutingEngine().solve_balanced(topo, demand);
      const auto hops = route::RoutingEngine().solve_shortest(topo, demand);
      if (!flow.feasible || !hops.feasible) continue;
      balanced.add(static_cast<double>(flow.max_load));
      shortest.add(static_cast<double>(hops.max_load));
    }
    const double ratio = shortest.mean() / balanced.mean();
    table.add_row({static_cast<long long>(n), balanced.mean(),
                   shortest.mean(), ratio, 100.0 * (ratio - 1.0)});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_bench_json("ablation_routing", table, recorder);
  return 0;
}
