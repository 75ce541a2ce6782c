// Ablation: set-up cost (§V-A/B/E) and how sectoring collapses the
// interference-probing bill (§IV's 85'320-vs-1'320 argument, measured on
// real clusters instead of the paper's back-of-envelope).
#include <cstdio>
#include <vector>

#include "core/routing.hpp"
#include "core/sectors.hpp"
#include "core/setup_phase.hpp"
#include "exp/fig_common.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "exp/bench_json.hpp"
#include "exp/flags.hpp"

using namespace mhp;

int main(int argc, char** argv) {
  mhp::exp::Flags("ablation: set-up phase cost accounting").parse(argc, argv);
  mhp::obs::RunRecorder recorder;
  std::printf(
      "Ablation — set-up slot budget, whole cluster vs sectors (M = 3)\n"
      "(discovery and connectivity are linear; probing is the "
      "super-linear\n term sectoring attacks)\n\n");

  Table table({"sensors", "discovery", "connectivity", "probe whole",
               "probe sectored", "sectors", "probe ratio"});
  table.set_precision(1, 0);
  table.set_precision(2, 0);
  table.set_precision(3, 0);
  table.set_precision(4, 0);
  table.set_precision(5, 1);
  table.set_precision(6, 1);

  for (std::size_t n = 20; n <= 80; n += 20) {
    Accumulator disc_s, conn_s, whole_s, sect_s, sect_count;
    for (int trial = 0; trial < 5; ++trial) {
      const auto seed = n * 17 + static_cast<std::uint64_t>(trial);
      const Deployment dep = mhp::exp::eval_deployment(n, seed);
      Simulator sim;
      TwoRayGround prop;
      std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
      powers[n] = RadioParams::kHeadTxPowerW;
      Channel channel(sim, prop, RadioParams{}, dep.positions, powers);

      const auto disc = run_setup_discovery(channel, n);
      disc_s.add(static_cast<double>(disc.cost.discovery_slots));
      conn_s.add(static_cast<double>(disc.cost.connectivity_slots));

      const std::vector<std::int64_t> demand(n, 1);
      const RelayPlan plan = RelayPlan::balanced(disc.topology, demand);

      std::vector<std::vector<NodeId>> all_paths;
      for (NodeId s = 0; s < n; ++s)
        all_paths.push_back(plan.paths(s)[0].hops);
      whole_s.add(static_cast<double>(
          interference_probing_cost(all_paths, 3).probe_slots));

      SectorPartitioner sp(disc.topology);
      const auto part = sp.partition(plan, demand);
      sect_count.add(static_cast<double>(part.sectors.size()));
      double sect_slots = 0;
      for (const auto& sec : part.sectors) {
        std::vector<std::vector<NodeId>> sector_paths;
        for (NodeId s : sec.sensors)
          sector_paths.push_back(part.tree_path(s, disc.topology.head()));
        sect_slots += static_cast<double>(
            interference_probing_cost(sector_paths, 3).probe_slots);
      }
      sect_s.add(sect_slots);
    }
    table.add_row({static_cast<long long>(n), disc_s.mean(), conn_s.mean(),
                   whole_s.mean(), sect_s.mean(), sect_count.mean(),
                   whole_s.mean() / sect_s.mean()});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_bench_json("ablation_setup_cost", table, recorder);
  return 0;
}
