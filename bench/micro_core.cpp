// Micro-benchmarks (google-benchmark): the algorithmic kernels — greedy
// scheduling, max-flow routing, the ack set cover, sector partitioning,
// interference probing and the oracle memo.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/ack_collection.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/interference.hpp"
#include "core/sectors.hpp"
#include "net/deployment.hpp"
#include "obs/json.hpp"
#include "radio/channel.hpp"
#include "route/routing_engine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace mhp;

namespace {

struct Scenario {
  ClusterTopology topo;
  std::vector<std::vector<NodeId>> paths;
  ExplicitOracle oracle{3};

  explicit Scenario(std::size_t n, std::uint64_t seed) : topo(make(n, seed)) {
    const auto routing = route::RoutingEngine().solve_balanced(
        topo, std::vector<std::int64_t>(n, 1));
    for (NodeId s = 0; s < n; ++s) paths.push_back(routing.paths[s][0].hops);
    const auto txs = transmissions_of_paths(paths);
    for (std::size_t i = 0; i < txs.size(); ++i)
      for (std::size_t j = i + 1; j < txs.size(); ++j)
        oracle.allow_pair(txs[i], txs[j]);
  }

  static ClusterTopology make(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return disc_topology(
        deploy_connected_uniform_square(n, 200.0, 60.0, rng), 60.0);
  }
};

void BM_GreedySchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Scenario sc(n, 1);
  for (auto _ : state) {
    const auto result = run_offline(sc.oracle, sc.paths);
    benchmark::DoNotOptimize(result.slots);
  }
  state.counters["slots"] =
      static_cast<double>(run_offline(sc.oracle, sc.paths).slots);
}
BENCHMARK(BM_GreedySchedule)->Arg(10)->Arg(30)->Arg(60)->Arg(100);

void BM_MinMaxLoadRouting(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = Scenario::make(n, 2);
  const std::vector<std::int64_t> demand(n, 2);
  for (auto _ : state) {
    const auto result = route::RoutingEngine().solve_balanced(topo, demand);
    benchmark::DoNotOptimize(result.max_load);
  }
}
BENCHMARK(BM_MinMaxLoadRouting)->Arg(10)->Arg(30)->Arg(60)->Arg(100);

/// One balanced routing solve on a disc field at the offline workloads'
/// density (1000 m² a sensor, 60 m range, expected degree about 11),
/// demand 1 per sensor, on a long-lived engine.  Args: {sensors, seed}.
/// {20000, 5} is solved by the first δ probe; {2000, 5} and {20000, 101}
/// start below δ* and take a Newton step.
void BM_SolveBalanced(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(state.range(1)));
  const ClusterTopology topo = disc_topology(
      deploy_connected_uniform_square(
          n, std::sqrt(1000.0 * static_cast<double>(n)), 60.0, rng),
      60.0);
  const std::vector<std::int64_t> demand(n, 1);
  route::RoutingEngine engine;
  for (auto _ : state) {
    const auto result = engine.solve_balanced(topo, demand);
    benchmark::DoNotOptimize(result.max_load);
  }
  const route::SolveStats& stats = engine.last_stats();
  state.counters["probes"] = stats.probes;
  state.counters["delta_star"] = static_cast<double>(stats.delta_star);
  state.counters["phases"] = static_cast<double>(stats.phases);
  state.counters["augmentations"] = static_cast<double>(stats.augmentations);
  state.counters["arc_scans"] = static_cast<double>(stats.arc_scans);
}
BENCHMARK(BM_SolveBalanced)
    ->Args({2000, 5})
    ->Args({20000, 5})
    ->Args({20000, 101})
    ->Unit(benchmark::kMillisecond);

/// One cluster at the Fig. 7(a) sensor density (about 1600 m² a sensor),
/// demand 3 per sensor so the balanced plan rotates over several unit
/// paths per sensor.
struct BigCluster {
  Deployment dep;
  ClusterTopology topo;
  RelayPlan plan;

  explicit BigCluster(std::size_t n)
      : dep(deploy(n)),
        topo(disc_topology(dep, 80.0)),
        plan(RelayPlan::balanced(topo, std::vector<std::int64_t>(n, 3))) {}

  static Deployment deploy(std::size_t n) {
    Rng rng(4);
    return deploy_connected_uniform_square(
        n, 40.0 * std::sqrt(static_cast<double>(n)), 80.0, rng);
  }

  /// Every sensor's data path of cycle 0: one offline greedy cycle.
  std::vector<std::vector<NodeId>> cycle_paths() const {
    std::vector<std::vector<NodeId>> paths;
    for (NodeId s = 0; s < dep.num_sensors(); ++s)
      paths.push_back(plan.path_for_cycle(s, 0).hops);
    return paths;
  }

  /// The transmissions of every unit path of the plan: the universe the
  /// head probes.
  std::vector<Tx> universe() const {
    std::vector<std::vector<NodeId>> paths;
    for (NodeId s = 0; s < dep.num_sensors(); ++s)
      for (const auto& p : plan.paths(s)) paths.push_back(p.hops);
    return transmissions_of_paths(paths);
  }
};

/// The SINR channel over a deployment, sensors at sensor power and the
/// head (the last node) at head power.
struct SinrField {
  Simulator sim;
  TwoRayGround prop;
  Channel channel;

  explicit SinrField(const Deployment& dep)
      : channel(sim, prop, RadioParams{}, dep.positions,
                powers(dep.num_sensors())) {}

  static std::vector<double> powers(std::size_t n) {
    std::vector<double> p(n + 1, RadioParams::kSensorTxPowerW);
    p[n] = RadioParams::kHeadTxPowerW;
    return p;
  }
};

void BM_AckCover(benchmark::State& state) {
  // The per-rotation-period §V-F step of a rotating single-cluster run:
  // pick the ack cover among the sensors' data paths of one phase.
  const auto n = static_cast<std::size_t>(state.range(0));
  const BigCluster c(n);
  std::vector<NodeId> members(n);
  std::iota(members.begin(), members.end(), NodeId{0});
  constexpr std::uint64_t kCycles = 8;
  std::vector<std::vector<std::vector<NodeId>>> rotated(kCycles);
  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle)
    for (NodeId s = 0; s < n; ++s)
      rotated[cycle].push_back(c.plan.path_for_cycle(s, cycle).hops);
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    const auto ack = plan_ack_cover(members, rotated[cycle++ % kCycles]);
    benchmark::DoNotOptimize(ack.total_hops);
  }
  const auto first = plan_ack_cover(members, rotated[0]);
  state.counters["ack_paths_cycle0"] =
      static_cast<double>(first.poll_paths.size());
}
BENCHMARK(BM_AckCover)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/// Passes every query through to `inner` and keeps it, so a benchmark
/// can replay the exact group stream the greedy scheduler issues.
class RecordingOracle : public CompatibilityOracle {
 public:
  explicit RecordingOracle(const CompatibilityOracle& inner) : inner_(inner) {}

  int order() const override { return inner_.order(); }

  bool compatible(std::span<const Tx> txs) const override {
    members_.insert(members_.end(), txs.begin(), txs.end());
    ends_.push_back(members_.size());
    return inner_.compatible(txs);
  }

  std::size_t queries() const { return ends_.size(); }
  std::span<const Tx> query(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {members_.data() + begin, ends_[i] - begin};
  }

 protected:
  bool compatible_impl(const TxGroup& group) const override {
    return inner_.compatible(group);
  }

 private:
  const CompatibilityOracle& inner_;
  mutable std::vector<Tx> members_;
  mutable std::vector<std::size_t> ends_;
};

void BM_CachedOracle(benchmark::State& state) {
  // The memo in front of the two inner oracles the shipped workloads use,
  // fed the stream one offline greedy cycle asks.  Hit-heavy (arg 0): a
  // 60-sensor cluster's MeasuredOracle at M=3 behind one long-lived memo,
  // which answers every repeat of the cycle's groups, as a field of small
  // clusters does.  Miss-heavy (arg 1): a fresh pair-screening memo per
  // cycle over the disc oracle of a 2000-sensor deployment, as the
  // offline production path has.
  const bool miss_heavy = state.range(0) == 1;
  const std::size_t n = miss_heavy ? 2000 : 60;
  const BigCluster c(n);
  const auto paths = c.cycle_paths();
  // The measured oracle asks its truth on every memo miss, so the field
  // and the truth outlive `inner`.
  std::optional<SinrField> field;
  std::optional<ChannelOracle> truth;
  std::unique_ptr<CompatibilityOracle> inner;
  if (miss_heavy) {
    inner = std::make_unique<DiscModelOracle>(c.dep.positions, 80.0, 3);
  } else {
    field.emplace(c.dep);
    truth.emplace(field->channel, 3);
    inner = std::make_unique<MeasuredOracle>(*truth, c.universe(), 3);
  }
  const RecordingOracle stream(*inner);
  run_offline(stream, paths);

  const auto screen = miss_heavy ? CachedOracle::PairScreen::kOn
                                 : CachedOracle::PairScreen::kOff;
  std::optional<CachedOracle> cached;
  cached.emplace(*inner, screen);
  for (auto _ : state) {
    if (miss_heavy) cached.emplace(*inner, screen);
    for (std::size_t q = 0; q < stream.queries(); ++q)
      benchmark::DoNotOptimize(cached->compatible(stream.query(q)));
  }
  state.SetLabel(miss_heavy ? "miss-heavy" : "hit-heavy");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.queries()));
  state.counters["queries"] = static_cast<double>(stream.queries());
  state.counters["hit_rate"] = cached->hit_rate();
  state.counters["entries"] = static_cast<double>(cached->size());
}
BENCHMARK(BM_CachedOracle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MeasuredOracleQuery(benchmark::State& state) {
  // §V-E knowledge at M=2 over the SINR channel (u is about 2000 at
  // n = 1800): one offline greedy cycle's query stream replayed through a
  // fresh pair-screening memo, as a cluster's first planning pass asks
  // it.  Every memo miss is one SINR test of the truth.
  const auto n = static_cast<std::size_t>(state.range(0));
  const BigCluster c(n);
  const SinrField field(c.dep);
  const ChannelOracle truth(field.channel, 2);
  const auto universe = c.universe();
  const MeasuredOracle oracle(truth, universe, 2);
  const RecordingOracle stream(oracle);
  run_offline(stream, c.cycle_paths());
  std::optional<CachedOracle> cached;
  for (auto _ : state) {
    cached.emplace(oracle, CachedOracle::PairScreen::kOn);
    for (std::size_t q = 0; q < stream.queries(); ++q)
      benchmark::DoNotOptimize(cached->compatible(stream.query(q)));
  }
  state.counters["universe"] = static_cast<double>(universe.size());
  state.counters["probes"] = static_cast<double>(oracle.probes());
  state.counters["queries"] = static_cast<double>(stream.queries());
  state.counters["misses"] = static_cast<double>(cached->misses());
}
BENCHMARK(BM_MeasuredOracleQuery)->Arg(1800)->Unit(benchmark::kMillisecond);

void BM_SectorPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto topo = Scenario::make(n, 5);
  const std::vector<std::int64_t> demand(n, 1);
  const RelayPlan plan = RelayPlan::balanced(topo, demand);
  SectorPartitioner sp(topo);
  for (auto _ : state) {
    const auto part = sp.partition(plan, demand);
    benchmark::DoNotOptimize(part.sectors.size());
  }
}
BENCHMARK(BM_SectorPartition)->Arg(30)->Arg(100);

void BM_OracleQuery(benchmark::State& state) {
  Scenario sc(30, 6);
  const auto txs = transmissions_of_paths(sc.paths);
  Rng rng(7);
  for (auto _ : state) {
    const Tx& a = txs[rng.below(txs.size())];
    const Tx& b = txs[rng.below(txs.size())];
    benchmark::DoNotOptimize(sc.oracle.compatible(std::vector<Tx>{a, b}));
  }
}
BENCHMARK(BM_OracleQuery);

// The shape of perfbench's offline_n20000 route fingerprint: an array of
// `rows` arrays of 40 ints, built, copied (as strip_host_fields copies a
// report) and dumped.  bytes_per_value is the heap one copy takes per
// value, node size and allocation overhead included, read from glibc's
// mallinfo2: it means something only in a glibc build without
// sanitizers, whose allocator mallinfo2 does not see.
void BM_JsonTree(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kCols = 40;
  const auto build = [rows] {
    obs::Json tree = obs::Json::array();
    for (std::size_t r = 0; r < rows; ++r) {
      obs::Json row = obs::Json::array();
      for (std::size_t c = 0; c < kCols; ++c)
        row.push_back(obs::Json(r * kCols + c));
      tree.push_back(std::move(row));
    }
    return tree;
  };
  for (auto _ : state) {
    const obs::Json tree = build();
    const obs::Json copy = tree;
    const std::string text = copy.dump();
    benchmark::DoNotOptimize(text.data());
  }
  // Heap in use: small chunks plus mmapped ones (the outer array).
  const auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const obs::Json tree = build();
  const std::size_t before = in_use();
  const obs::Json copy = tree;
  const std::size_t after = in_use();
  benchmark::DoNotOptimize(&copy);
  const double values = static_cast<double>(1 + rows * (1 + kCols));
  state.counters["values"] = values;
  // Signed: heap in use may also shrink between the two reads.
  state.counters["bytes_per_value"] =
      (static_cast<double>(after) - static_cast<double>(before)) / values;
}
BENCHMARK(BM_JsonTree)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
