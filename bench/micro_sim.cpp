// Micro-benchmarks (google-benchmark): the simulator substrate — event
// queue throughput, SINR evaluation, per-frame channel cost, and full
// duty-cycle simulation rate.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/polling_simulation.hpp"
#include "exp/fig_common.hpp"
#include "net/deployment.hpp"
#include "radio/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace mhp;

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (std::size_t i = 0; i < batch; ++i)
      q.push(Time::ns(static_cast<std::int64_t>(rng.below(1'000'000))),
             [] {});
    while (auto ev = q.pop()) benchmark::DoNotOptimize(ev->when);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.after(Time::us(1), tick);
    };
    sim.after(Time::us(1), tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorSelfScheduling);

// The S-MAC contention shape: a few hundred live timers, each of which
// re-arms itself when it fires (a DIFS or a backoff slot later), so nearly
// every event schedules exactly one successor from inside its callback.
struct RearmingTimer {
  Simulator* sim;
  Rng* rng;
  std::uint64_t* budget;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    sim->after(rng->below(2) ? Time::us(400) : Time::us(200), *this);
  }
};

void BM_TimerRearm(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kRearms = 100'000;
  std::uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    Rng rng(3);
    std::uint64_t budget = kRearms;
    for (std::size_t i = 0; i < timers; ++i)
      sim.after(Time::us(static_cast<std::int64_t>(rng.below(400))),
                RearmingTimer{&sim, &rng, &budget});
    sim.run();
    events += sim.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TimerRearm)->Arg(300);

void BM_ConcurrentOutcome(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Simulator sim;
  TwoRayGround prop;
  Rng rng(2);
  const Deployment dep = mhp::exp::eval_deployment(n, 9);
  std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
  powers[n] = RadioParams::kHeadTxPowerW;
  Channel channel(sim, prop, RadioParams{}, dep.positions, powers);
  std::vector<Channel::TxRx> txs;
  for (NodeId s = 0; s + 3 < n; s += 4) txs.push_back({s, s + 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.concurrent_outcome(txs));
  }
  state.counters["group"] = static_cast<double>(txs.size());
}
BENCHMARK(BM_ConcurrentOutcome)->Arg(20)->Arg(60)->Arg(100);

// One SINR Channel frame end to end (transmit, frame-begin notices, the
// end event and its SINR verdicts) with a listener on every node.  The
// field has Fig. 7(a) density, 1333 m² per sensor, so each sender reaches
// about the same number of receivers at every n.  range(0) is the number
// of sensors, range(1) the frames in flight: each iteration starts that
// many frames from distinct senders at once and runs them to their end.
void BM_ChannelTransmit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto in_flight = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  const Deployment dep =
      deploy_uniform_square(n, std::sqrt(1333.0 * static_cast<double>(n)), rng);
  std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
  powers[n] = RadioParams::kHeadTxPowerW;
  Simulator sim;
  TwoRayGround prop;
  const RadioParams params;
  Channel channel(sim, prop, params, dep.positions, powers);
  struct Sink : ChannelListener {
    std::uint64_t decoded = 0;
    void on_frame_end(const Frame&, NodeId, bool phy_ok) override {
      decoded += phy_ok ? 1 : 0;
    }
  } sink;
  for (NodeId r = 0; r <= n; ++r) channel.set_listener(r, &sink);

  // One frame from every sensor first, so that every sender row is kept
  // and the loop times hot frames (BM_ChannelBuild times the cold ones).
  std::uint64_t uid = 0;
  for (NodeId s = 0; s < n; ++s) {
    Frame f;
    f.uid = ++uid;
    f.src = s;
    f.size_bytes = 40;
    channel.transmit(s, f);
    sim.run();
  }
  for (auto _ : state) {
    const auto first = static_cast<NodeId>(rng.below(n));
    for (std::size_t k = 0; k < in_flight; ++k) {
      Frame f;
      f.uid = ++uid;
      f.src = static_cast<NodeId>((first + k * (n / in_flight)) % n);
      f.size_bytes = 40;
      channel.transmit(f.src, f);
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink.decoded);
  std::size_t audible = 0;
  for (NodeId a = 0; a < n; ++a) audible += channel.audible(a).size();
  state.counters["audible"] =
      static_cast<double>(audible) / static_cast<double>(n);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in_flight));
}
BENCHMARK(BM_ChannelTransmit)->ArgsProduct({{400, 2000}, {1, 2, 3, 4}});

// Building a two-ray Channel at Fig. 7(a) density (the grid-built audible
// lists) plus one frame from every 20th sender, each of which computes its
// sender row.  range(0) is the number of sensors.
void BM_ChannelBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Deployment dep =
      deploy_uniform_square(n, std::sqrt(1333.0 * static_cast<double>(n)), rng);
  std::vector<double> powers(n + 1, RadioParams::kSensorTxPowerW);
  powers[n] = RadioParams::kHeadTxPowerW;
  const TwoRayGround prop;
  ChannelStats stats;
  for (auto _ : state) {
    Simulator sim;
    Channel channel(sim, prop, RadioParams{}, dep.positions, powers);
    std::uint64_t uid = 0;
    for (NodeId s = 0; s < n; s += 20) {
      Frame f;
      f.uid = ++uid;
      f.src = s;
      f.size_bytes = 40;
      channel.transmit(s, f);
      sim.run();
    }
    stats = channel.stats();
  }
  const auto nodes = static_cast<double>(n + 1);
  state.counters["audible"] = static_cast<double>(stats.audible_entries) / nodes;
  state.counters["calls_per_node"] =
      static_cast<double>(stats.propagation_calls) / nodes;
  state.counters["resident_MB"] =
      static_cast<double>(stats.resident_power_bytes) / 1e6;
}
BENCHMARK(BM_ChannelBuild)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_FullDutyCycleSimulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const Deployment dep = mhp::exp::eval_deployment(n, 11);
    PollingSimulation sim(dep, mhp::exp::eval_protocol_config(11), 40.0);
    const auto rep = sim.run(Time::sec(12), Time::sec(2));
    benchmark::DoNotOptimize(rep.packets_delivered);
  }
  state.counters["sim_s_per_s"] = benchmark::Counter(
      10.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullDutyCycleSimulation)->Arg(10)->Arg(30)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
