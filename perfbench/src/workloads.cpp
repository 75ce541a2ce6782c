// The four benchmark workloads.  Each builds its input documents from the
// seed at construction; a pass parses them and drives the simulator only
// through public functions, wrapping every call in a "bench/..." span.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/ack_collection.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/interference.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/polling_simulation.hpp"
#include "core/routing.hpp"
#include "net/deployment.hpp"
#include "obs/profiler.hpp"
#include "obs/report_json.hpp"
#include "radio/channel.hpp"
#include "radio/propagation.hpp"
#include "route/routing_engine.hpp"
#include "scenario/campaign.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using mhp::NodeId;
using mhp::obs::Json;
namespace sc = mhp::scenario;

constexpr double kSensorRange = 60.0;
/// Fig. 7(a) density: 30 sensors in a 200 m square.
constexpr double kFig7aSide = 200.0;
double fig7a_side(std::size_t n) {
  return kFig7aSide * std::sqrt(static_cast<double>(n) / 30.0);
}

/// Run `f` inside profiler span `span` (a string literal).
template <class F>
auto in_span(const char* span, F&& f) {
  mhp::obs::ProfileSpanScope scope(span);
  return f();
}

/// in_span, adding the call's wall time, times `scale` (1e3 → ms,
/// 1e6 → µs), to `out[metric]`.
template <class F>
auto timed(LayerMetrics& out, const char* span, const char* metric,
           double scale, F&& f) {
  const auto t0 = Clock::now();
  auto result = in_span(span, f);
  out[metric] += seconds_since(t0) * scale;
  return result;
}

std::string output_hash(const Json& doc, bool perturb) {
  Json stripped = strip_host_fields(doc);
  if (perturb) stripped.set("perturbed", Json(true));
  return mhp::serve::content_hash_hex(stripped.dump());
}

/// The RunStats block of a report envelope (multi_cluster nests it under
/// "totals").
const Json& run_stats(const Json& envelope) {
  const Json& body = envelope.at("report");
  const Json* totals = body.find("totals");
  return totals != nullptr ? *totals : body;
}

/// Sums over report envelopes: what the output check hashes is the whole
/// report, these are the counts the trace reports beside it.
struct ReportTally {
  double generated = 0, delivered = 0, events = 0, wall_s = 0;
  double oracle_hits = 0, oracle_misses = 0;

  void add(const Json& envelope) {
    const Json& stats = run_stats(envelope);
    generated += stats.at("packets_generated").as_double();
    delivered += stats.at("packets_delivered").as_double();
    events += stats.at("run").at("events_processed").as_double();
    wall_s += stats.at("run").at("wall_seconds").as_double();
    if (const Json* oracle = envelope.at("report").find("oracle")) {
      oracle_hits += oracle->at("hits").as_double();
      oracle_misses += oracle->at("misses").as_double();
    }
  }

  void record(LayerMetrics& out) const {
    out["sim.events"] = events;
    out["sim.us_per_event"] = events > 0 ? wall_s * 1e6 / events : 0.0;
    out["sim.delivery_ratio"] = generated > 0 ? delivered / generated : 0.0;
    out["core.oracle_queries"] = oracle_hits + oracle_misses;
    out["core.oracle_hit_rate"] =
        oracle_hits + oracle_misses > 0
            ? oracle_hits / (oracle_hits + oracle_misses)
            : 0.0;
  }
};

mhp::RuntimeOptions runtime_of(const sc::Scenario& s) {
  mhp::RuntimeOptions rt;
  rt.trace_max_entries = s.trace_max_entries;
  rt.route_workers = s.route_workers;
  return rt;
}

std::vector<double> rates_of(const sc::Scenario& s) {
  return s.traffic.rates_bps.empty()
             ? std::vector<double>(s.deployment.sensor_count(),
                                   s.traffic.rate_bps)
             : s.traffic.rates_bps;
}

/// The polling set-up chain of one cluster, replayed through public
/// functions the way PollingSimulation's constructor runs it (no sectors,
/// rotating paths): Channel → topology_from_predicate → solve_balanced →
/// plan_ack_cover → MeasuredOracle.  Then one offline greedy cycle over
/// the measured oracle, and that cycle's slots replayed as frames through
/// Channel::transmit on a bare Simulator.  Returns the oracle's probes.
std::uint64_t replay_cluster(const mhp::Deployment& dep,
                             const mhp::ProtocolConfig& cfg,
                             const std::vector<double>& rates,
                             LayerMetrics& out) {
  const std::size_t n = dep.num_sensors();
  mhp::Simulator sim;
  const mhp::TwoRayGround prop;
  std::vector<double> powers(n + 1, mhp::RadioParams::kSensorTxPowerW);
  powers[n] = mhp::RadioParams::kHeadTxPowerW;
  const auto channel = timed(out, "bench/channel", "radio.channel_build_ms",
                             1e3, [&] {
                               return std::make_unique<mhp::Channel>(
                                   sim, prop, cfg.radio, dep.positions,
                                   powers);
                             });
  const mhp::ClusterTopology topo =
      timed(out, "bench/topology", "net.topology_ms", 1e3, [&] {
        return mhp::topology_from_predicate(n, [&](NodeId a, NodeId b) {
          return channel->link_ok(a, b);
        });
      });
  if (!topo.fully_connected())
    throw std::runtime_error("replay: cluster not fully connected");
  out["net.links"] += static_cast<double>(topo.sensor_links().edge_count());

  const double cycle_s = cfg.cycle_period.to_seconds();
  std::vector<std::int64_t> demand(n);
  for (NodeId s = 0; s < n; ++s)
    demand[s] = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(std::ceil(
               rates[s] * cycle_s / static_cast<double>(cfg.data_bytes)))));
  mhp::route::RoutingEngine engine;
  auto solution = timed(out, "bench/route", "route.solve_ms", 1e3,
                        [&] { return engine.solve_balanced(topo, demand); });
  const mhp::RelayPlan plan(topo, std::move(solution));

  std::vector<NodeId> members(n);
  std::iota(members.begin(), members.end(), NodeId{0});
  std::vector<std::vector<NodeId>> data_paths;
  data_paths.reserve(n);
  for (NodeId s = 0; s < n; ++s)
    data_paths.push_back(plan.path_for_cycle(s, 0).hops);
  const mhp::AckPlan ack =
      timed(out, "bench/ack_cover", "core.ack_cover_ms", 1e3,
            [&] { return mhp::plan_ack_cover(members, data_paths); });
  if (!ack.covers_all) throw std::runtime_error("replay: ack cover incomplete");

  std::vector<std::vector<NodeId>> all_paths = data_paths;
  all_paths.insert(all_paths.end(), ack.poll_paths.begin(),
                   ack.poll_paths.end());
  for (NodeId s = 0; s < n; ++s)
    for (const auto& p : plan.paths(s)) all_paths.push_back(p.hops);
  const std::vector<mhp::Tx> universe = mhp::transmissions_of_paths(all_paths);
  out["core.oracle_universe"] += static_cast<double>(universe.size());
  const mhp::ChannelOracle truth(*channel, cfg.oracle_order);
  const auto oracle =
      timed(out, "bench/oracle_probe", "core.oracle_probe_ms", 1e3, [&] {
        return std::make_unique<mhp::MeasuredOracle>(truth, universe,
                                                     cfg.oracle_order);
      });
  out["core.oracle_probes"] += static_cast<double>(oracle->probes());

  const mhp::CachedOracle cached(*oracle);
  const mhp::OfflineRunResult cycle =
      timed(out, "bench/schedule", "core.schedule_ms", 1e3,
            [&] { return mhp::run_offline(cached, data_paths); });
  if (!cycle.all_delivered)
    throw std::runtime_error("replay: offline cycle did not finish");
  out["core.slots"] += static_cast<double>(cycle.slots);
  out["core.tx"] += static_cast<double>(cycle.transmissions);

  // Every scheduled slot's transmissions start together; slots are a
  // protocol slot apart, so each frame sees exactly its slot's peers.
  const mhp::Time slot = cfg.slot_duration();
  std::uint64_t uid = 0;
  for (std::size_t t = 0; t < cycle.schedule.slots.size(); ++t) {
    for (const mhp::ScheduledTx& stx : cycle.schedule.slots[t]) {
      mhp::Frame frame;
      frame.uid = ++uid;
      frame.src = stx.tx.from;
      frame.dst = stx.tx.to;
      frame.origin = stx.tx.from;
      frame.size_bytes = cfg.data_bytes;
      sim.at(slot * static_cast<std::int64_t>(t),
             [ch = channel.get(), frame]() mutable {
               ch->transmit(frame.src, std::move(frame));
             });
    }
  }
  timed(out, "bench/frames", "radio.frames_ms", 1e3, [&] { return sim.run(); });
  out["radio.frames"] += static_cast<double>(channel->frames_transmitted());
  return oracle->probes();
}

/// Turn the replay's summed frame time into the cost of one frame.
void finish_replay(LayerMetrics& out) {
  const double frames = out["radio.frames"];
  out["radio.frame_us"] =
      frames > 0 ? out["radio.frames_ms"] * 1e3 / frames : 0.0;
  out.erase("radio.frames_ms");
}

// --- polling and multi_cluster stacks ---------------------------------

/// A scenario document run the way run_scenario runs it, split so set-up
/// (deployment + facade constructor) and the run() call time apart.
class StackWorkload : public Workload {
 public:
  StackWorkload(const sc::Scenario& s, bool perturb)
      : text_(sc::scenario_to_json(s).dump()), perturb_(perturb) {}

  Iteration iterate() override {
    Iteration it;
    const Stopwatch pass;
    const sc::Scenario s =
        timed(it.layers, "bench/parse", "scenario.parse_us", 1e6,
              [&] { return sc::parse_scenario_text(text_); });
    Json envelope = s.stack == sc::StackKind::kPolling ? run_polling(s, it)
                                                       : run_fields(s, it);
    timed(it.layers, "bench/report", "obs.report_ms", 1e3, [&] {
      it.output_hash = output_hash(envelope, perturb_);
      return 0;
    });
    ReportTally tally;
    tally.add(envelope);
    tally.record(it.layers);
    it.wall_s = pass.wall_s();
    it.cpu_s = pass.cpu_s();
    return it;
  }

  bool replay(LayerMetrics& out) override {
    const sc::Scenario s = sc::parse_scenario_text(text_);
    std::uint64_t probes = 0;
    const std::size_t clusters =
        s.stack == sc::StackKind::kPolling
            ? 1
            : s.clusters.grid_x * s.clusters.grid_y;
    for (std::size_t c = 0; c < clusters; ++c) {
      const mhp::Deployment dep =
          timed(out, "bench/deploy", "net.deploy_ms", 1e3,
                [&] { return sc::build_deployment(s.deployment, c); });
      probes += replay_cluster(dep, s.protocol, rates_of(s), out);
    }
    finish_replay(out);
    // The replay must probe exactly what the facade probed.
    return s.stack != sc::StackKind::kPolling || probes == facade_probes_;
  }

  /// The same document through run_scenario, the mhp_run entry point:
  /// its report must hash like the split path's.
  std::string facade_check() override {
    sc::Scenario s = sc::parse_scenario_text(text_);
    const std::string split = iterate().output_hash;
    s.run.record_perf = false;
    return output_hash(sc::run_scenario(s), perturb_) == split
               ? ""
               : "run_scenario report differs from the split path";
  }

 private:
  Json run_polling(const sc::Scenario& s, Iteration& it) {
    const Stopwatch setup;
    const mhp::Deployment dep =
        timed(it.layers, "bench/deploy", "net.deploy_ms", 1e3,
              [&] { return sc::build_deployment(s.deployment); });
    auto sim = in_span("bench/setup", [&] {
      return std::make_unique<mhp::PollingSimulation>(
          dep, s.protocol, rates_of(s), runtime_of(s));
    });
    it.setup_s = setup.wall_s();
    it.setup_cpu_s = setup.cpu_s();
    const Stopwatch run;
    const mhp::SimulationReport report =
        in_span("bench/run",
                [&] { return sim->run(s.run.duration, s.run.warmup); });
    it.run_s = run.wall_s();
    it.run_cpu_s = run.cpu_s();
    facade_probes_ = sim->oracle().probes();
    in_span("bench/teardown", [&] {
      sim.reset();
      return 0;
    });
    return timed(it.layers, "bench/report", "obs.report_ms", 1e3,
                 [&] { return mhp::obs::to_json(report); });
  }

  Json run_fields(const sc::Scenario& s, Iteration& it) {
    const Stopwatch setup;
    std::vector<mhp::ClusterSpec> clusters;
    timed(it.layers, "bench/deploy", "net.deploy_ms", 1e3, [&] {
      for (std::size_t gy = 0; gy < s.clusters.grid_y; ++gy)
        for (std::size_t gx = 0; gx < s.clusters.grid_x; ++gx) {
          mhp::ClusterSpec spec;
          spec.deployment = sc::build_deployment(
              s.deployment, gy * s.clusters.grid_x + gx);
          spec.origin = mhp::Vec2{static_cast<double>(gx) * s.clusters.pitch,
                                  static_cast<double>(gy) * s.clusters.pitch};
          clusters.push_back(std::move(spec));
        }
      return 0;
    });
    auto sim = in_span("bench/setup", [&] {
      return std::make_unique<mhp::MultiClusterSimulation>(
          std::move(clusters), s.protocol, s.clusters.mode,
          s.traffic.rate_bps, s.clusters.interference_range, runtime_of(s));
    });
    it.setup_s = setup.wall_s();
    it.setup_cpu_s = setup.cpu_s();
    const Stopwatch run;
    const mhp::MultiClusterReport report =
        in_span("bench/run",
                [&] { return sim->run(s.run.duration, s.run.warmup); });
    it.run_s = run.wall_s();
    it.run_cpu_s = run.cpu_s();
    in_span("bench/teardown", [&] {
      sim.reset();
      return 0;
    });
    return timed(it.layers, "bench/report", "obs.report_ms", 1e3,
                 [&] { return mhp::obs::to_json(report); });
  }

  std::string text_;
  bool perturb_;
  std::uint64_t facade_probes_ = 0;
};

// --- offline production path --------------------------------------------

/// The perf_scaling production chain on one big deployment:
/// disc_topology → solve_balanced → run_offline over a pair-screening
/// CachedOracle(DiscModelOracle).
class OfflineWorkload : public Workload {
 public:
  OfflineWorkload(const sc::Scenario& s, std::size_t replay_sensors,
                  bool perturb)
      : text_(sc::scenario_to_json(s).dump()),
        replay_sensors_(replay_sensors),
        perturb_(perturb) {}

  Iteration iterate() override {
    Iteration it;
    LayerMetrics& m = it.layers;
    const Stopwatch pass;
    const sc::Scenario s =
        timed(m, "bench/parse", "scenario.parse_us", 1e6,
              [&] { return sc::parse_scenario_text(text_); });
    const mhp::Deployment dep =
        timed(m, "bench/deploy", "net.deploy_ms", 1e3,
              [&] { return sc::build_deployment(s.deployment); });
    const mhp::ClusterTopology topo =
        timed(m, "bench/topology", "net.topology_ms", 1e3,
              [&] { return mhp::disc_topology(dep, kSensorRange); });
    m["net.links"] = static_cast<double>(topo.sensor_links().edge_count());
    const std::vector<std::int64_t> demand(dep.num_sensors(), 1);
    mhp::route::RoutingEngine engine;
    auto solution = timed(m, "bench/route", "route.solve_ms", 1e3,
                          [&] { return engine.solve_balanced(topo, demand); });
    Json fingerprint = Json::object();
    fingerprint.set("feasible", Json(solution.feasible))
        .set("max_load", Json(solution.max_load));
    const mhp::RelayPlan plan(topo, std::move(solution));
    std::vector<std::vector<NodeId>> paths;
    paths.reserve(dep.num_sensors());
    for (NodeId s = 0; s < dep.num_sensors(); ++s)
      paths.push_back(plan.path_for_cycle(s, 0).hops);
    const mhp::DiscModelOracle truth(dep.positions, kSensorRange,
                                     s.protocol.oracle_order);
    const mhp::CachedOracle cached(truth, mhp::CachedOracle::PairScreen::kOn);
    it.setup_s = pass.wall_s();
    it.setup_cpu_s = pass.cpu_s();

    // The default 1M-slot guard is sized for clusters, not fields: path
    // length grows with the field side, so scale the cap with n.
    const std::size_t max_slots =
        std::max<std::size_t>(1'000'000, 64 * dep.num_sensors());
    const Stopwatch run;
    const mhp::OfflineRunResult cycle =
        timed(m, "bench/schedule", "core.schedule_ms", 1e3, [&] {
          return mhp::run_offline(cached, paths, {}, max_slots);
        });
    it.run_s = run.wall_s();
    it.run_cpu_s = run.cpu_s();
    m["core.slots"] = static_cast<double>(cycle.slots);
    m["core.tx"] = static_cast<double>(cycle.transmissions);
    m["core.plan_slot_us"] =
        cycle.slots > 0 ? m["core.schedule_ms"] * 1e3 / cycle.slots : 0.0;
    const double queries = static_cast<double>(cached.hits() + cached.misses());
    m["core.oracle_queries"] = queries;
    m["core.oracle_hit_rate"] = cached.hit_rate();
    if (!cycle.all_delivered) {
      it.failed = 1;
      it.error = "offline cycle did not deliver every packet";
    }

    timed(m, "bench/report", "obs.report_ms", 1e3, [&] {
      Json routes = Json::array();
      for (NodeId s = 0; s < plan.num_sensors(); ++s) {
        Json row = Json::array();
        row.push_back(Json(plan.load(s)));
        for (const auto& p : plan.paths(s)) {
          Json hops = Json::array();
          for (const NodeId hop : p.hops) hops.push_back(Json(hop));
          row.push_back(std::move(hops));
          row.push_back(Json(p.units));
        }
        routes.push_back(std::move(row));
      }
      fingerprint.set("routes", std::move(routes))
          .set("slots", Json(cycle.slots))
          .set("transmissions", Json(cycle.transmissions))
          .set("all_delivered", Json(cycle.all_delivered));
      it.output_hash = output_hash(fingerprint, perturb_);
      return 0;
    });
    it.wall_s = pass.wall_s();
    it.cpu_s = pass.cpu_s();
    return it;
  }

  /// The field is far beyond a dense n×n Channel, so the radio and probing
  /// layers are replayed on a smaller cluster drawn from the same seed at
  /// the same density, probed at M=2.
  bool replay(LayerMetrics& out) override {
    sc::Scenario s = sc::parse_scenario_text(text_);
    s.deployment.n_sensors = replay_sensors_;
    s.deployment.side =
        std::sqrt(1000.0 * static_cast<double>(replay_sensors_));
    s.protocol.oracle_order = 2;
    const mhp::Deployment dep =
        timed(out, "bench/deploy", "net.deploy_ms", 1e3,
              [&] { return sc::build_deployment(s.deployment); });
    replay_cluster(dep, s.protocol, rates_of(s), out);
    finish_replay(out);
    return true;
  }

 private:
  std::string text_;
  std::size_t replay_sensors_;
  bool perturb_;
};

// --- served campaign ------------------------------------------------------

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile.
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// An in-process serve::Server on a fresh socket and job root, stopped
/// and joined on every exit path.
class Service {
 public:
  Service(const std::string& tag, std::size_t workers)
      : root_(".bench_build/perfbench-jobs/" + tag) {
    std::filesystem::remove_all(root_);
    mhp::serve::ServeConfig cfg;
    // Relative: AF_UNIX paths are short, the checkout's may not be.
    cfg.socket_path = ".bench_build/pb-" + tag + ".sock";
    cfg.out_root = root_;
    cfg.workers = workers;
    cfg.queue_capacity = 256;
    socket_ = cfg.socket_path;
    server_ = std::make_unique<mhp::serve::Server>(std::move(cfg));
    server_->start();
    thread_ = std::thread([this] { server_->run(); });
  }
  ~Service() {
    server_->request_stop();
    thread_.join();
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    std::filesystem::remove(socket_, ec);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const std::string& socket() const { return socket_; }

 private:
  std::string root_;
  std::string socket_;
  std::unique_ptr<mhp::serve::Server> server_;
  std::thread thread_;
};

/// Fig. 7(a) polling grid and Fig. 7(b) S-MAC grid, submitted to a
/// fresh in-process server over one client connection in a closed loop:
/// the next job goes only after the previous job's done frame.
class CampaignWorkload : public Workload {
  static constexpr int kServiceStarts = 9;

 public:
  CampaignWorkload(std::uint64_t seed, Size size, bool perturb)
      : perturb_(perturb) {
    const bool full = size == Size::kFull;
    const auto ints = [](std::vector<long long> v) {
      Json a = Json::array();
      for (const long long x : v) a.push_back(Json(x));
      return a;
    };
    const auto reals = [](std::vector<double> v) {
      Json a = Json::array();
      for (const double x : v) a.push_back(Json(x));
      return a;
    };
    const Json sizes = full ? ints({10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
                            : ints({10, 20});
    const mhp::Time duration = full ? mhp::Time::sec(10) : mhp::Time::sec(6);
    const mhp::Time warmup = full ? mhp::Time::sec(5) : mhp::Time::sec(2);

    sc::Scenario polling = sc::default_scenario(sc::StackKind::kPolling);
    polling.name = "fig7a_grid";
    polling.deployment.side = kFig7aSide;
    polling.deployment.sensor_range = kSensorRange;
    polling.deployment.seed = seed;
    polling.protocol.oracle_order = 3;
    polling.protocol.seed = seed;
    polling.run.duration = duration;
    polling.run.warmup = warmup;
    polling.run.record_perf = true;
    Json sweep_a = Json::object();
    sweep_a.set("deployment.seed",
                full ? ints({static_cast<long long>(2 * seed + 1),
                             static_cast<long long>(2 * seed + 2)})
                     : ints({static_cast<long long>(2 * seed + 1)}));
    sweep_a.set("deployment.n_sensors", sizes);
    sweep_a.set("traffic.rate_bps",
                full ? reals({20, 40, 60, 80}) : reals({20, 40}));
    docs_.push_back(Json::object()
                        .set("name", Json("fig7a_grid"))
                        .set("base", sc::scenario_to_json(polling))
                        .set("sweep", std::move(sweep_a)));

    sc::Scenario smac = sc::default_scenario(sc::StackKind::kSmac);
    smac.name = "fig7b_smac_grid";
    smac.deployment.side = kFig7aSide;
    smac.deployment.sensor_range = kSensorRange;
    smac.deployment.seed = 2 * seed + 1;
    smac.smac.duty_cycle = 0.5;
    smac.smac.seed = seed;
    smac.run.duration = duration;
    smac.run.warmup = warmup;
    smac.run.record_perf = true;
    Json sweep_b = Json::object();
    sweep_b.set("deployment.n_sensors", sizes);
    sweep_b.set("traffic.rate_bps", full ? reals({20, 40}) : reals({20}));
    docs_.push_back(Json::object()
                        .set("name", Json("fig7b_smac_grid"))
                        .set("base", sc::scenario_to_json(smac))
                        .set("sweep", std::move(sweep_b)));
    texts_.reserve(docs_.size());
    for (const Json& doc : docs_) texts_.push_back(doc.dump());
  }

  Iteration iterate() override {
    Iteration it;
    LayerMetrics& m = it.layers;
    const Stopwatch pass;
    // Set-up: validate and expand the documents as mhp_run --validate-only
    // does, then bring up a fresh service and connect.
    std::vector<Json> docs;
    std::size_t points = 0;
    timed(m, "bench/expand", "scenario.expand_ms", 1e3, [&] {
      for (const std::string& text : texts_) {
        docs.push_back(mhp::obs::parse_json(text));
        points += sc::expand_campaign(
                      sc::parse_campaign(docs.back(), nullptr))
                      .size();
      }
      return 0;
    });
    it.attempted = points;
    const std::size_t workers = std::max<std::size_t>(1, cores() - 1);
    const std::string tag =
        std::to_string(::getpid()) + "-" + std::to_string(++passes_);
    // Worker threads plus the one client connection stay within nproc.
    // Bringing a service up takes about a millisecond, so the pass times
    // several bring-ups and keeps the last; set-up is the fastest.
    std::unique_ptr<Service> service;
    std::unique_ptr<mhp::serve::Client> client;
    std::vector<double> setups, setups_cpu;
    const double expand_s = pass.wall_s();
    const double expand_cpu_s = pass.cpu_s();
    for (int rep = 0; rep < kServiceStarts; ++rep) {
      client.reset();
      service.reset();
      const Stopwatch start;
      service = in_span("bench/serve_start", [&] {
        return std::make_unique<Service>(tag + "-" + std::to_string(rep),
                                         workers);
      });
      client = in_span("bench/connect", [&] {
        return std::make_unique<mhp::serve::Client>(
            mhp::serve::Client::connect(service->socket()));
      });
      setups.push_back(expand_s + start.wall_s());
      setups_cpu.push_back(expand_cpu_s + start.cpu_s());
    }
    it.setup_s = *std::min_element(setups.begin(), setups.end());
    it.setup_cpu_s = *std::min_element(setups_cpu.begin(), setups_cpu.end());

    const Stopwatch run;
    std::map<std::string, Json> reports;  // "job/key" → report, sorted
    std::vector<double> admission_ms, point_ms, queue_wait_ms, smac_ms;
    std::size_t ok = 0, refusals = 0;
    for (const Json& doc : docs) {
      const std::string job_name = doc.at("name").as_string();
      in_span("bench/job", [&] {
        const auto submitted = Clock::now();
        const Json response = client->submit(doc);
        admission_ms.push_back(seconds_since(submitted) * 1e3);
        if (response.at("status").as_string() != "ok") {
          ++refusals;
          it.error = "submit refused: " + response.dump();
          return 0;
        }
        for (;;) {
          const std::optional<Json> frame = client->next_frame();
          if (!frame) {
            it.error = "connection closed before the done frame";
            return 0;
          }
          const double arrived_ms = seconds_since(submitted) * 1e3;
          const std::string& kind = frame->at("frame").as_string();
          if (kind == "done") {
            if (frame->at("skipped").as_int() != 0)
              it.error = "job replayed skipped points";
            return 0;
          }
          const std::string& status = frame->at("status").as_string();
          const double wall_ms = frame->at("point_wall_ms").as_double();
          if (status != "ok") {
            it.error = job_name + " point " +
                       frame->at("key").as_string() + ": " + status;
            continue;
          }
          ++ok;
          point_ms.push_back(wall_ms);
          queue_wait_ms.push_back(arrived_ms - wall_ms);
          if (job_name == "fig7b_smac_grid") smac_ms.push_back(wall_ms);
          reports.emplace(job_name + "/" + frame->at("key").as_string(),
                          frame->at("report"));
        }
      });
    }
    it.run_s = run.wall_s();
    it.run_cpu_s = run.cpu_s();
    in_span("bench/serve_stop", [&] {
      client.reset();
      service.reset();
      return 0;
    });

    timed(m, "bench/report", "obs.report_ms", 1e3, [&] {
      Json all = Json::object();
      ReportTally tally;
      for (const auto& [key, report] : reports) {
        all.set(key, report);
        tally.add(report);
      }
      tally.record(m);
      it.output_hash = output_hash(all, perturb_);
      return 0;
    });
    it.failed = points - std::min(points, ok);
    if (it.failed == 0 && !it.error.empty()) it.failed = 1;
    m["serve.admission_p50_ms"] = median_of(admission_ms);
    m["serve.admission_p90_ms"] = quantile_of(admission_ms, 0.9);
    m["serve.refusals"] = static_cast<double>(refusals);
    m["serve.queue_wait_ms"] = median_of(queue_wait_ms);
    m["serve.point_p50_ms"] = median_of(point_ms);
    m["serve.point_p90_ms"] = quantile_of(point_ms, 0.9);
    m["serve.points_per_s"] =
        it.run_s > 0 ? static_cast<double>(ok) / it.run_s : 0.0;
    m["baseline.smac_point_ms"] = median_of(smac_ms);
    m["serve.workers"] = static_cast<double>(workers);
    it.wall_s = pass.wall_s();
    it.cpu_s = pass.cpu_s();
    return it;
  }

  /// Client-side replay of every point: parse, deploy and, for polling
  /// points, the cluster set-up chain.
  bool replay(LayerMetrics& out) override {
    double parses = 0;
    for (const Json& doc : docs_) {
      for (const sc::CampaignPoint& point :
           sc::expand_campaign(sc::parse_campaign(doc, nullptr))) {
        const std::string text = point.doc.dump();
        const sc::Scenario s =
            timed(out, "bench/parse", "scenario.parse_us", 1e6,
                  [&] { return sc::parse_scenario_text(text); });
        ++parses;
        const mhp::Deployment dep =
            timed(out, "bench/deploy", "net.deploy_ms", 1e3,
                  [&] { return sc::build_deployment(s.deployment); });
        if (s.stack == sc::StackKind::kPolling)
          replay_cluster(dep, s.protocol, rates_of(s), out);
      }
    }
    out["scenario.parse_us"] /= parses;
    finish_replay(out);
    return true;
  }

 private:
  std::vector<Json> docs_;
  std::vector<std::string> texts_;
  bool perturb_;
  std::size_t passes_ = 0;
};

sc::Scenario field_scenario(std::uint64_t seed, bool full) {
  sc::Scenario s = sc::default_scenario(sc::StackKind::kMultiCluster);
  s.name = "field_5x5";
  const std::size_t n = full ? 60 : 20;
  s.deployment.n_sensors = n;
  s.deployment.side = fig7a_side(n);
  s.deployment.sensor_range = kSensorRange;
  s.deployment.seed = seed;
  s.traffic.rate_bps = 20.0;
  s.protocol.oracle_order = 3;
  s.protocol.seed = seed;
  s.run.duration = full ? mhp::Time::sec(30) : mhp::Time::sec(6);
  s.run.warmup = full ? mhp::Time::sec(10) : mhp::Time::sec(2);
  s.run.record_perf = true;
  s.clusters.grid_x = s.clusters.grid_y = full ? 5 : 2;
  s.clusters.pitch = full ? 311.0 : 180.0;
  s.clusters.mode = mhp::InterClusterMode::kColored;
  s.clusters.interference_range = 700.0;
  return s;
}

sc::Scenario big_cluster_scenario(std::uint64_t seed, bool full) {
  sc::Scenario s = sc::default_scenario(sc::StackKind::kPolling);
  s.name = "big_cluster_n2000";
  const std::size_t n = full ? 2000 : 200;
  s.deployment.n_sensors = n;
  s.deployment.side = fig7a_side(n);
  s.deployment.sensor_range = kSensorRange;
  s.deployment.seed = seed;
  s.traffic.rate_bps = 20.0;
  s.protocol.oracle_order = 2;
  s.protocol.seed = seed;
  s.run.duration = full ? mhp::Time::sec(20) : mhp::Time::sec(4);
  s.run.warmup = full ? mhp::Time::sec(10) : mhp::Time::sec(1);
  s.run.record_perf = true;
  return s;
}

/// Deployment seeds of 20000-sensor fields at perf_scaling's density
/// whose first draw is already connected and whose balanced routing
/// (default policy) settles in one δ-probe, as perf_scaling's own field
/// does.  Of 56 first-draw-connected seeds tried, 24 behave so; the others
/// run a 12–24-probe δ-search that takes 2.6–4.5 s instead of about 1 s.
/// A workload mixing the two would swing by a factor of three from seed
/// to seed, so the workload seed picks from this list.
constexpr std::uint64_t kOfflineDeploySeeds[] = {
    31676,   95028,   102947,  229651,  300922,  356355,
    435545,  625601,  696872,  926523,  958199,  974037,
    997794,  1100741, 1132417, 1140336, 1179931, 1195769,
    1203688, 1211607, 1282878, 1338311, 1520448, 1544205};

/// perf_scaling's density: 1000 m² per sensor, M=3 disc interference.
sc::Scenario offline_scenario(std::uint64_t seed, bool full) {
  sc::Scenario s = sc::default_scenario(sc::StackKind::kPolling);
  s.name = "offline_n20000";
  const std::size_t n = full ? 20000 : 500;
  s.deployment.n_sensors = n;
  s.deployment.side = std::sqrt(1000.0 * static_cast<double>(n));
  s.deployment.sensor_range = kSensorRange;
  s.deployment.seed =
      kOfflineDeploySeeds[seed % std::size(kOfflineDeploySeeds)];
  s.protocol.oracle_order = 3;
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "field_5x5", "big_cluster_n2000", "offline_n20000", "campaign_fig7"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size,
                                        bool perturb) {
  const bool full = size == Size::kFull;
  if (name == "field_5x5")
    return std::make_unique<StackWorkload>(field_scenario(seed, full), perturb);
  if (name == "big_cluster_n2000")
    return std::make_unique<StackWorkload>(big_cluster_scenario(seed, full),
                                           perturb);
  if (name == "offline_n20000")
    return std::make_unique<OfflineWorkload>(offline_scenario(seed, full),
                                             full ? 200 : 100, perturb);
  if (name == "campaign_fig7")
    return std::make_unique<CampaignWorkload>(seed, size, perturb);
  throw std::invalid_argument("unknown workload: " + name);
}

Json strip_host_fields(const Json& doc) {
  if (doc.is_array()) {
    Json out = Json::array();
    for (std::size_t i = 0; i < doc.size(); ++i)
      out.push_back(strip_host_fields(doc.at(i)));
    return out;
  }
  if (!doc.is_object()) return doc;
  Json out = Json::object();
  for (const auto& [key, value] : doc.items()) {
    if (key == "wall_seconds" || key == "events_per_sec" ||
        key == "point_wall_ms")
      continue;
    out.set(key, strip_host_fields(value));
  }
  return out;
}

}  // namespace perfbench
