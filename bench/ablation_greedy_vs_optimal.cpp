// Ablation: how far is the on-line greedy schedule (Table 1) from the
// exact optimum the paper proves NP-hard?
//
// Random small clusters and TSRF instances where branch-and-bound is
// feasible.  Expected: greedy within a few percent of optimal on average,
// never below the combinatorial lower bound.
#include <cstdio>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "core/optimal_scheduler.hpp"
#include "core/reductions.hpp"
#include "net/deployment.hpp"
#include "route/routing_engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "exp/bench_json.hpp"
#include "exp/flags.hpp"

using namespace mhp;

namespace {

struct Row {
  std::string scenario;
  Accumulator ratio;     // greedy / optimal
  Accumulator greedy;    // slots
  Accumulator optimal;   // slots
  std::size_t greedy_was_optimal = 0;
  std::size_t trials = 0;
};

void run_random_clusters(Row& row, int order, std::uint64_t salt) {
  for (int trial = 0; trial < 25; ++trial) {
    Rng rng(salt + static_cast<std::uint64_t>(trial));
    const std::size_t n = 4 + rng.below(5);  // keep B&B tractable
    const Deployment dep =
        deploy_connected_uniform_square(n, 150.0, 60.0, rng);
    const ClusterTopology topo = disc_topology(dep, 60.0);
    const auto routing = route::RoutingEngine().solve_balanced(
        topo, std::vector<std::int64_t>(n, 1));
    if (!routing.feasible) continue;

    ExplicitOracle oracle(order);
    std::vector<std::vector<NodeId>> paths;
    for (NodeId s = 0; s < n; ++s) paths.push_back(routing.paths[s][0].hops);
    const auto txs = transmissions_of_paths(paths);
    for (std::size_t i = 0; i < txs.size(); ++i)
      for (std::size_t j = i + 1; j < txs.size(); ++j)
        if (rng.bernoulli(0.6)) oracle.allow_pair(txs[i], txs[j]);

    const auto greedy = run_offline(oracle, paths);
    if (!greedy.all_delivered) continue;
    std::vector<PollingRequest> reqs;
    for (std::size_t i = 0; i < paths.size(); ++i)
      reqs.push_back({static_cast<RequestId>(i), paths[i]});
    OptimalScheduler solver(oracle);
    const auto opt = solver.solve(reqs);
    if (!opt) continue;

    row.ratio.add(static_cast<double>(greedy.slots) /
                  static_cast<double>(opt->slots));
    row.greedy.add(static_cast<double>(greedy.slots));
    row.optimal.add(static_cast<double>(opt->slots));
    if (greedy.slots == opt->slots) ++row.greedy_was_optimal;
    ++row.trials;
  }
}

void run_tsrf(Row& row, double edge_prob, std::uint64_t salt) {
  for (int trial = 0; trial < 25; ++trial) {
    Rng rng(salt + static_cast<std::uint64_t>(trial));
    const std::size_t k = 4 + rng.below(4);
    Graph g(k);
    for (NodeId i = 0; i < k; ++i)
      for (NodeId j = i + 1; j < k; ++j)
        if (rng.bernoulli(edge_prob)) g.add_edge(i, j);
    TsrfReduction red(g);
    const auto reqs = red.instance.requests();
    std::vector<std::vector<NodeId>> paths;
    for (const auto& r : reqs) paths.push_back(r.path);

    const auto greedy = run_offline(red.oracle, paths);
    OptimalScheduler solver(red.oracle);
    const auto opt = solver.solve(reqs);
    if (!greedy.all_delivered || !opt) continue;

    row.ratio.add(static_cast<double>(greedy.slots) /
                  static_cast<double>(opt->slots));
    row.greedy.add(static_cast<double>(greedy.slots));
    row.optimal.add(static_cast<double>(opt->slots));
    if (greedy.slots == opt->slots) ++row.greedy_was_optimal;
    ++row.trials;
  }
}

}  // namespace

int main(int argc, char** argv) {
  mhp::exp::Flags("ablation: greedy vs optimal schedule length").parse(argc, argv);
  mhp::obs::RunRecorder recorder;
  std::printf(
      "Ablation — greedy (Table 1) vs exact branch-and-bound schedules\n"
      "(the paper justifies greedy by NP-hardness; this measures the\n"
      " price paid)\n\n");

  std::vector<Row> rows(4);
  rows[0].scenario = "random clusters, M=2";
  run_random_clusters(rows[0], 2, 91000);
  rows[1].scenario = "random clusters, M=3";
  run_random_clusters(rows[1], 3, 92000);
  rows[2].scenario = "TSRF p=0.3";
  run_tsrf(rows[2], 0.3, 93000);
  rows[3].scenario = "TSRF p=0.7";
  run_tsrf(rows[3], 0.7, 94000);

  Table table({"scenario", "trials", "greedy slots", "optimal slots",
               "mean ratio", "greedy optimal %"});
  table.set_precision(2, 2);
  table.set_precision(3, 2);
  table.set_precision(4, 3);
  table.set_precision(5, 1);
  for (const auto& r : rows) {
    table.add_row({r.scenario, static_cast<long long>(r.trials),
                   r.greedy.mean(), r.optimal.mean(), r.ratio.mean(),
                   100.0 * static_cast<double>(r.greedy_was_optimal) /
                       static_cast<double>(r.trials)});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  mhp::exp::save_bench_json("ablation_greedy_vs_optimal", table, recorder);
  return 0;
}
