// Ablation: the greedy scheduler scans requests in an "arbitrary
// predetermined order" (Table 1).  How arbitrary is arbitrary?  This
// measures schedule-length spread across random request orders and the
// gain from cheap random restarts.
#include <cstdio>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "core/interference.hpp"
#include "net/deployment.hpp"
#include "route/routing_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "exp/bench_json.hpp"
#include "exp/flags.hpp"

using namespace mhp;

int main(int argc, char** argv) {
  mhp::exp::Flags("ablation: schedule sensitivity to polling order").parse(argc, argv);
  mhp::obs::RunRecorder recorder;
  std::printf(
      "Ablation — request-order sensitivity of the Table-1 greedy\n"
      "(schedule slots across 50 random orders; restart-8 = best of 8\n"
      " random restarts, the cheap offline improvement)\n\n");

  Table table({"sensors", "order min", "order mean", "order max",
               "spread %", "restart-8 gain %"});
  table.set_precision(1, 1);
  table.set_precision(2, 2);
  table.set_precision(3, 1);
  table.set_precision(4, 1);
  table.set_precision(5, 2);

  for (std::size_t n = 10; n <= 50; n += 10) {
    Accumulator omin, omean, omax, spread, gain;
    for (int trial = 0; trial < 8; ++trial) {
      Rng rng(n * 91 + static_cast<std::uint64_t>(trial));
      const Deployment dep =
          deploy_connected_uniform_square(n, 200.0, 60.0, rng);
      const ClusterTopology topo = disc_topology(dep, 60.0);
      const auto routing = route::RoutingEngine().solve_balanced(
          topo, std::vector<std::int64_t>(n, 1));
      if (!routing.feasible) continue;

      ExplicitOracle oracle(3);
      std::vector<std::vector<NodeId>> paths;
      for (NodeId s = 0; s < n; ++s)
        paths.push_back(routing.paths[s][0].hops);
      const auto txs = transmissions_of_paths(paths);
      for (std::size_t i = 0; i < txs.size(); ++i)
        for (std::size_t j = i + 1; j < txs.size(); ++j)
          if (rng.bernoulli(0.7)) oracle.allow_pair(txs[i], txs[j]);

      Accumulator lengths;
      auto order = paths;
      for (int o = 0; o < 50; ++o) {
        rng.shuffle(order);
        const auto result = run_offline(oracle, order);
        if (result.all_delivered)
          lengths.add(static_cast<double>(result.slots));
      }
      if (lengths.empty()) continue;
      omin.add(lengths.min());
      omean.add(lengths.mean());
      omax.add(lengths.max());
      spread.add(100.0 * (lengths.max() - lengths.min()) / lengths.mean());

      Rng restart_rng(n + static_cast<std::uint64_t>(trial));
      const auto improved = best_of_orders(oracle, paths, 8, restart_rng);
      const auto base = run_offline(oracle, paths);
      gain.add(100.0 *
               (static_cast<double>(base.slots) -
                static_cast<double>(improved.slots)) /
               static_cast<double>(base.slots));
    }
    table.add_row({static_cast<long long>(n), omin.mean(), omean.mean(),
                   omax.mean(), spread.mean(), gain.mean()});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_bench_json("ablation_order_sensitivity", table, recorder);
  return 0;
}
