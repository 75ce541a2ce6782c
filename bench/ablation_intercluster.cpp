// Ablation: inter-cluster interference and its remedies (§V-G), measured.
//
// A 2×2 field of adjacent clusters polls simultaneously on one channel
// (the problem), on coloured channels, and under token rotation.
// Expected: shared loses boundary packets; colouring restores ~100%
// delivery with ≤4 channels; the token restores it on one channel at the
// cost of longer awake windows per cycle.
#include <cstdio>
#include <vector>

#include "core/multi_cluster_sim.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "exp/bench_json.hpp"
#include "exp/flags.hpp"

using namespace mhp;

namespace {

std::vector<ClusterSpec> make_field(std::uint64_t seed) {
  // 2×2 clusters, 220 m pitch: boundary sensors of neighbours are within
  // interference range of each other.
  std::vector<ClusterSpec> specs;
  Rng rng(seed);
  for (int y = 0; y < 2; ++y)
    for (int x = 0; x < 2; ++x) {
      ClusterSpec spec;
      spec.deployment =
          deploy_connected_uniform_square(12, 180.0, 60.0, rng);
      spec.origin = {x * 220.0, y * 220.0};
      specs.push_back(std::move(spec));
    }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  mhp::exp::Flags("ablation: inter-cluster coordination modes").parse(argc, argv);
  mhp::obs::RunRecorder recorder;
  std::printf(
      "Ablation — inter-cluster interference (§V-G): 2x2 adjacent "
      "clusters,\n12 sensors each, 40 B/s per sensor\n\n");

  Table table({"mode", "channels", "aggregate delivery %",
               "worst cluster %", "mean active %"});
  table.set_precision(2, 1);
  table.set_precision(3, 1);
  table.set_precision(4, 1);

  for (InterClusterMode mode :
       {InterClusterMode::kShared, InterClusterMode::kColored,
        InterClusterMode::kToken}) {
    ProtocolConfig cfg;
    cfg.seed = 11;
    MultiClusterSimulation sim(make_field(11), cfg, mode, 40.0);
    const auto rep = sim.run(Time::sec(50), Time::sec(10));
    recorder.add_events(rep.totals.events_processed);
    double worst = 1.0, active = 0.0;
    for (double d : rep.delivery_ratio) worst = std::min(worst, d);
    for (double a : rep.mean_active) active += a / rep.mean_active.size();
    table.add_row({std::string(scenario::to_string(mode)),
                   static_cast<long long>(rep.channels_used),
                   100.0 * rep.aggregate_delivery, 100.0 * worst,
                   100.0 * active});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_bench_json("ablation_intercluster", table, recorder);
  return 0;
}
