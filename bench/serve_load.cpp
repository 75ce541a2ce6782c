// Campaign-service load generator: an in-process mhp_serve server on a
// private UNIX socket, hammered by N concurrent clients each submitting a
// stream of unique single-point scenarios.  Measures what the serve layer
// itself adds — admission latency (request → response, p50/p95/p99 via
// the fixed-bin Histogram), end-to-end point throughput, and how often
// the bounded queue pushes back (queue_full rejections; clients retry).
//
// Writes BENCH_serve.json via the standard bench-report path.
//
//   --smoke              reduced load for CI (4 clients × 8 submissions)
//   --clients N          concurrent submitting clients (default 8)
//   --submissions N      submissions per client (default 40)
//   --workers N          server worker threads (default hardware)
//   --queue-cap N        server admission queue capacity (default 64)
//   --budget-p95-ms MS   fail (exit 1) if admission p95 exceeds this
//                        (default 250 ms — generous; the gate exists to
//                        catch pathological serialization, not jitter)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/bench_json.hpp"
#include "exp/csv_out.hpp"
#include "exp/flags.hpp"
#include "obs/json.hpp"
#include "obs/run_recorder.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using mhp::obs::Json;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Smallest useful scenario: the serve layer's own cost dominates, not
/// the simulation.  Unique names → unique canonical forms → every
/// submission gets its own durable job directory (no resume skips).
Json tiny_scenario(const std::string& name) {
  namespace sc = mhp::scenario;
  sc::Scenario s = sc::default_scenario(sc::StackKind::kPolling);
  s.name = name;
  s.deployment.kind = sc::DeploymentSpec::Kind::kRings;
  s.deployment.rings = 2;
  s.deployment.per_ring = 4;
  s.run.duration = mhp::Time::sec(4);
  s.run.warmup = mhp::Time::sec(1);
  s.run.record_perf = false;
  return sc::scenario_to_json(s);
}

struct ClientTally {
  std::size_t admitted = 0;
  std::size_t rejected_full = 0;  // queue_full responses (then retried)
  std::size_t points_ok = 0;
  std::size_t errors = 0;
  std::vector<double> admission_ms;  // one sample per accepted submit
};

/// One client: submit `submissions` unique scenarios (retrying on
/// queue_full backpressure), then drain frames until every admitted job
/// has reported done.
ClientTally run_client(const std::string& socket_path, int id,
                       std::size_t submissions) {
  ClientTally tally;
  mhp::serve::Client client = mhp::serve::Client::connect(socket_path);
  std::size_t open_jobs = 0;
  for (std::size_t i = 0; i < submissions; ++i) {
    const Json doc = tiny_scenario("load_c" + std::to_string(id) + "_s" +
                                   std::to_string(i));
    for (;;) {
      const auto t0 = Clock::now();
      const Json response = client.submit(doc);
      const double ms = ms_since(t0);
      const std::string& status = response.at("status").as_string();
      if (status == "ok") {
        tally.admission_ms.push_back(ms);
        ++tally.admitted;
        ++open_jobs;
        break;
      }
      if (status == "queue_full") {
        // Explicit backpressure: the response came back immediately; the
        // client owns the retry policy.
        ++tally.rejected_full;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      ++tally.errors;
      std::fprintf(stderr, "serve_load: client %d: %s\n", id,
                   response.dump().c_str());
      break;
    }
  }
  while (open_jobs > 0) {
    const auto frame = client.next_frame();
    if (!frame.has_value()) {
      std::fprintf(stderr,
                   "serve_load: client %d: connection closed with %zu "
                   "job(s) open\n",
                   id, open_jobs);
      tally.errors += open_jobs;
      break;
    }
    const Json* kind = frame->find("frame");
    if (kind == nullptr || !kind->is_string()) continue;
    if (kind->as_string() == "done") {
      --open_jobs;
      continue;
    }
    const Json* status = frame->find("status");
    if (status != nullptr && status->is_string() &&
        status->as_string() == "ok")
      ++tally.points_ok;
  }
  return tally;
}

double quantile_of(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  double hi = *std::max_element(samples.begin(), samples.end());
  if (hi <= 0.0) hi = 1.0;
  mhp::Histogram h(0.0, hi * 1.0001, 256);
  for (const double v : samples) h.add(v);
  return h.quantile(q);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mhp;
  exp::Flags flags("campaign-service load generator (admission latency, "
                   "throughput, backpressure)");
  flags.flag("--smoke", "reduced load for CI")
      .option("--clients", "N", "concurrent clients (default 8)")
      .option("--submissions", "N", "submissions per client (default 40)")
      .option("--workers", "N", "server workers (default hardware)")
      .option("--queue-cap", "N", "server queue capacity (default 64)")
      .option("--budget-p95-ms", "MS",
              "fail if admission p95 exceeds this (default 250)");
  flags.parse(argc, argv);
  const bool smoke = flags.has("--smoke");
  const std::size_t clients =
      flags.count_value("--clients", smoke ? 4 : 8);
  const std::size_t submissions =
      flags.count_value("--submissions", smoke ? 8 : 40);
  const std::size_t workers = flags.count_value("--workers", 0);
  const std::size_t queue_cap = flags.count_value("--queue-cap", 64);
  double budget_p95_ms = 250.0;
  if (!flags.value("--budget-p95-ms").empty())
    budget_p95_ms = std::stod(flags.value("--budget-p95-ms"));

  namespace fs = std::filesystem;
  const std::string base =
      (fs::temp_directory_path() /
       ("mhp_serve_load_" + std::to_string(::getpid())))
          .string();
  const std::string socket_path = base + ".sock";
  const std::string out_root = base + ".jobs";
  fs::remove_all(out_root);  // fresh root: no resume skips, every point runs

  serve::ServeConfig cfg;
  cfg.socket_path = socket_path;
  cfg.out_root = out_root;
  cfg.workers = workers;
  cfg.queue_capacity = queue_cap;
  serve::Server server(cfg);
  server.start();
  std::thread server_thread([&server] { server.run(); });

  std::printf(
      "serve_load: %zu client(s) x %zu submission(s), queue capacity %zu\n",
      clients, submissions, queue_cap);

  // The recorder's clock starts with the load, so the report's
  // run.wall_seconds spans it (plus the server's drain below).
  obs::RunRecorder recorder;
  std::vector<std::thread> threads;
  std::vector<ClientTally> tallies(clients);
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      tallies[c] = run_client(socket_path, static_cast<int>(c), submissions);
    });
  for (std::thread& t : threads) t.join();
  const double wall_s = recorder.wall_seconds();

  server.request_stop();
  server_thread.join();
  fs::remove_all(out_root);

  ClientTally total;
  std::vector<double> admission_ms;
  for (const ClientTally& t : tallies) {
    total.admitted += t.admitted;
    total.rejected_full += t.rejected_full;
    total.points_ok += t.points_ok;
    total.errors += t.errors;
    admission_ms.insert(admission_ms.end(), t.admission_ms.begin(),
                        t.admission_ms.end());
  }
  const double p50 = quantile_of(admission_ms, 0.50);
  const double p95 = quantile_of(admission_ms, 0.95);
  const double p99 = quantile_of(admission_ms, 0.99);
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(total.points_ok) / wall_s : 0.0;

  recorder.add_events(total.points_ok);

  Table table({"clients", "submissions", "admitted", "rejected_full",
               "points_ok", "errors", "wall_s", "points_per_sec",
               "adm_p50_ms", "adm_p95_ms", "adm_p99_ms", "budget_p95_ms"});
  table.set_precision(6, 2);
  table.set_precision(7, 1);
  table.set_precision(8, 3);
  table.set_precision(9, 3);
  table.set_precision(10, 3);
  table.set_precision(11, 1);
  table.add_row({static_cast<long long>(clients),
                 static_cast<long long>(clients * submissions),
                 static_cast<long long>(total.admitted),
                 static_cast<long long>(total.rejected_full),
                 static_cast<long long>(total.points_ok),
                 static_cast<long long>(total.errors), wall_s, throughput,
                 p50, p95, p99, budget_p95_ms});
  std::printf("%s\n", table.to_ascii().c_str());
  exp::save_csv("serve_load.csv", table);
  exp::save_bench_json("serve", table, recorder);

  if (total.errors > 0) {
    std::fprintf(stderr, "serve_load: FAILED — %zu client error(s)\n",
                 total.errors);
    return 1;
  }
  if (total.points_ok != clients * submissions) {
    std::fprintf(stderr,
                 "serve_load: FAILED — %zu of %zu points completed ok\n",
                 total.points_ok, clients * submissions);
    return 1;
  }
  if (p95 > budget_p95_ms) {
    std::fprintf(stderr,
                 "serve_load: REGRESSION — admission p95 %.3f ms over "
                 "budget %.1f ms\n",
                 p95, budget_p95_ms);
    return 1;
  }
  std::printf(
      "serve gates ok: all %zu point(s) completed, admission p95 %.3f ms "
      "within %.1f ms\n",
      total.points_ok, p95, budget_p95_ms);
  return 0;
}
