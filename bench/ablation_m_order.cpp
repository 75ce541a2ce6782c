// Ablation: the compatibility knowledge order M (§III-B suggests M = 2
// or 3).  Larger M → shorter schedules (more concurrency) but the probing
// cost the head pays during set-up grows combinatorially — the trade-off
// that motivates sectoring (§IV).
#include <cstdio>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "core/interference.hpp"
#include "exp/fig_common.hpp"
#include "radio/channel.hpp"
#include "route/routing_engine.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "exp/bench_json.hpp"
#include "exp/flags.hpp"

using namespace mhp;

int main(int argc, char** argv) {
  mhp::exp::Flags("ablation: compatibility order M trade-off").parse(argc, argv);
  mhp::obs::RunRecorder recorder;
  std::printf(
      "Ablation — compatibility order M: schedule length vs probing cost\n"
      "(30-sensor clusters; probes = groups tested during set-up, §V-E)\n\n");

  Table table({"M", "mean slots", "mean probes", "slots vs M=1"});
  table.set_precision(1, 2);
  table.set_precision(3, 3);

  std::vector<double> base_slots;
  for (int order = 1; order <= 4; ++order) {
    Accumulator slots, probes;
    for (int trial = 0; trial < 8; ++trial) {
      const auto seed = static_cast<std::uint64_t>(trial);
      const Deployment dep = mhp::exp::eval_deployment(30, seed);
      Simulator sim;
      TwoRayGround prop;
      std::vector<double> powers(31, RadioParams::kSensorTxPowerW);
      powers[30] = RadioParams::kHeadTxPowerW;
      Channel channel(sim, prop, RadioParams{}, dep.positions, powers);
      const auto topo = link_topology(channel, 30);
      const auto routing = route::RoutingEngine().solve_balanced(
          topo, std::vector<std::int64_t>(30, 1));
      if (!routing.feasible) continue;

      std::vector<std::vector<NodeId>> paths;
      for (NodeId s = 0; s < 30; ++s)
        paths.push_back(routing.paths[s][0].hops);
      ChannelOracle truth(channel, order);
      MeasuredOracle oracle(truth, transmissions_of_paths(paths), order);
      const auto result = run_offline(oracle, paths);
      if (!result.all_delivered) continue;
      slots.add(static_cast<double>(result.slots));
      probes.add(static_cast<double>(oracle.probes()));
    }
    if (order == 1) base_slots.push_back(slots.mean());
    table.add_row({static_cast<long long>(order), slots.mean(),
                   probes.mean(), slots.mean() / base_slots[0]});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_bench_json("ablation_m_order", table, recorder);
  return 0;
}
