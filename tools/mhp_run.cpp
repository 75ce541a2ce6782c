// mhp_run: execute declarative scenarios and campaigns from the command
// line.
//
//   mhp_run scenario.json                   run, report to stdout
//   mhp_run scenario.json --out report.json run, report to a file
//   mhp_run scenario.json --profile-out t.json   profile the run, write
//                                           Chrome trace-event JSON
//   mhp_run scenario.json --samples-out s.jsonl  sim-time metric samples
//   mhp_run --validate-only a.json b.json   parse + validate, run nothing
//   mhp_run --validate-trace trace.json     strict-parse an emitted trace
//   mhp_run --dump-defaults [stack]         print the fully-defaulted
//                                           scenario (polling default)
//   mhp_run --campaign campaign.json --out-dir DIR [--workers N]
//
// Campaign service (the long-lived daemon and its clients):
//   mhp_run --serve --socket /run/mhp.sock --out-dir jobs [--workers N]
//           [--queue-cap N]                 serve submissions until
//                                           shutdown (SIGINT/SIGTERM
//                                           drain + flush gracefully)
//   mhp_run --submit file.json --connect /run/mhp.sock [--out report.json]
//                                           submit a scenario/campaign,
//                                           stream its results
//   mhp_run --ctl status|drain|shutdown --connect /run/mhp.sock
//
// Exit codes: 0 success, 1 runtime/validation failure, 2 usage error,
// 3 server backpressure (queue_full), 130 interrupted (manifest flushed
// for resume).
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "exp/flags.hpp"
#include "obs/report_json.hpp"
#include "scenario/campaign.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace mhp;

// Graceful-interrupt plumbing: the handler only flips atomics (and asks
// a serving instance to stop), so it is async-signal-safe.  Batch mode
// stops dispatching new campaign points and flushes manifests; serve
// mode drains in-flight points and flushes every job.
std::atomic<bool> g_interrupt{false};
serve::Server* g_server = nullptr;

extern "C" void on_interrupt(int) {
  g_interrupt.store(true, std::memory_order_relaxed);
  if (g_server != nullptr) g_server->request_stop();
}

void install_interrupt_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_interrupt;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open())
    throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int dump_defaults(const std::string& stack_name) {
  using scenario::StackKind;
  std::string known;
  for (const StackKind stack :
       {StackKind::kPolling, StackKind::kMultiCluster, StackKind::kSmac}) {
    if (stack_name == scenario::to_string(stack)) {
      const obs::Json doc =
          scenario::scenario_to_json(scenario::default_scenario(stack));
      std::printf("%s\n", doc.dump(2).c_str());
      return 0;
    }
    if (!known.empty()) known += ", ";
    known += scenario::to_string(stack);
  }
  std::fprintf(stderr, "mhp_run: unknown stack \"%s\" (%s)\n",
               stack_name.c_str(), known.c_str());
  return 2;
}

int validate_only(const std::vector<std::string>& paths) {
  int bad = 0;
  for (const std::string& path : paths) {
    try {
      const obs::Json doc = obs::parse_json(read_file(path));
      // A top-level "base" key marks a campaign file; everything else
      // must be a plain scenario.
      if (doc.is_object() && doc.find("base") != nullptr) {
        const std::filesystem::path dir =
            std::filesystem::path(path).parent_path();
        const scenario::Campaign campaign = scenario::parse_campaign(
            doc, [&dir](const std::string& base) {
              return read_file((dir / base).string());
            });
        std::printf("%s: ok (campaign, %zu points)\n", path.c_str(),
                    scenario::expand_campaign(campaign).size());
      } else {
        scenario::parse_scenario(doc);
        std::printf("%s: ok\n", path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

/// Strict validation of an emitted Chrome trace-event file: it must
/// parse with the obs::Json parser and hold a non-empty "traceEvents"
/// array whose entries all carry the mandatory event keys.
int validate_trace(const std::vector<std::string>& paths) {
  int bad = 0;
  for (const std::string& path : paths) {
    try {
      const obs::Json doc = obs::parse_json(read_file(path));
      const obs::Json* events =
          doc.is_object() ? doc.find("traceEvents") : nullptr;
      if (events == nullptr || !events->is_array())
        throw std::runtime_error("no \"traceEvents\" array");
      std::size_t spans = 0;
      for (std::size_t i = 0; i < events->size(); ++i) {
        const obs::Json& e = events->at(i);
        if (!e.is_object() || e.find("ph") == nullptr ||
            e.find("pid") == nullptr || e.find("tid") == nullptr ||
            e.find("name") == nullptr)
          throw std::runtime_error("traceEvents[" + std::to_string(i) +
                                   "]: missing ph/pid/tid/name");
        if (e.find("ph")->as_string() == "X") ++spans;
      }
      if (spans == 0)
        throw std::runtime_error("no complete (\"ph\":\"X\") span events");
      std::printf("%s: ok (%zu events, %zu spans)\n", path.c_str(),
                  events->size(), spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int run_one(const std::string& path, const std::string& out,
            std::optional<std::size_t> workers,
            const std::string& profile_out, const std::string& samples_out) {
  scenario::Scenario s = scenario::parse_scenario_text(read_file(path));
  // --workers on a single run overrides the scenario's per-cluster
  // routing thread count (reports are byte-identical for any value).
  if (workers.has_value()) s.route_workers = *workers;

  scenario::RunScenarioOptions opts;
  std::ofstream trace_file, samples_file;
  if (!profile_out.empty()) {
    // The flag both requests the artifact and turns profiling on, so a
    // stock scenario file profiles without editing.
    s.profile = true;
    trace_file.open(profile_out);
    if (!trace_file.is_open())
      throw std::runtime_error("cannot open " + profile_out);
    opts.trace_out = &trace_file;
  }
  if (!samples_out.empty()) {
    if (s.sample_period <= Time::zero())
      s.sample_period = Time::seconds(1.0);
    samples_file.open(samples_out);
    if (!samples_file.is_open())
      throw std::runtime_error("cannot open " + samples_out);
    opts.samples_out = &samples_file;
  }

  const obs::Json report = scenario::run_scenario(s, opts);
  if (out.empty()) {
    std::printf("%s\n", report.dump(2).c_str());
    return 0;
  }
  return obs::save_json(out, report) ? 0 : 1;
}

int run_campaign_file(const std::string& path, const std::string& out_dir,
                      std::size_t workers) {
  // "base": "fig7a.json" resolves relative to the campaign file.
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  const scenario::Campaign campaign = scenario::parse_campaign(
      obs::parse_json(read_file(path)), [&dir](const std::string& base) {
        return read_file((dir / base).string());
      });
  // SIGINT/SIGTERM stop dispatching new points; finished points are
  // already flushed, so a rerun resumes from the manifest.
  install_interrupt_handlers();
  const scenario::CampaignResult r = scenario::run_campaign(
      campaign, out_dir, workers, stdout, &g_interrupt);
  std::printf(
      "campaign: %zu point(s): %zu ok, %zu failed, %zu skipped "
      "(results in %s)\n",
      r.total, r.ok, r.failed, r.skipped, out_dir.c_str());
  if (r.interrupted > 0) {
    std::printf(
        "campaign: interrupted — %zu point(s) not started; manifest "
        "flushed, rerun to resume\n",
        r.interrupted);
    return 130;
  }
  return r.failed == 0 ? 0 : 1;
}

int serve_main(const exp::Flags& flags) {
  serve::ServeConfig cfg;
  cfg.socket_path = flags.value("--socket");
  if (cfg.socket_path.empty()) {
    std::fprintf(stderr, "mhp_run: --serve needs --socket PATH\n");
    return 2;
  }
  cfg.out_root = flags.value("--out-dir", "mhp_jobs");
  cfg.workers = flags.count_value("--workers", 0);
  cfg.queue_capacity = flags.count_value("--queue-cap", 256);
  if (cfg.queue_capacity == 0) {
    std::fprintf(stderr, "mhp_run: --queue-cap must be >= 1\n");
    return 2;
  }
  cfg.log = stdout;

  serve::Server server(cfg);
  server.start();
  g_server = &server;
  install_interrupt_handlers();
  server.run();
  g_server = nullptr;
  return 0;
}

int ctl_main(const std::string& op, const std::string& connect_path) {
  if (op != "status" && op != "drain" && op != "shutdown") {
    std::fprintf(stderr,
                 "mhp_run: --ctl takes status, drain or shutdown\n");
    return 2;
  }
  serve::Client client = serve::Client::connect(connect_path);
  const obs::Json response =
      client.request(obs::Json::object().set("op", obs::Json(op)));
  std::printf("%s\n", response.dump(2).c_str());
  const obs::Json* status = response.find("status");
  return status != nullptr && status->is_string() &&
                 status->as_string() == "ok"
             ? 0
             : 1;
}

int submit_main(const std::string& path, const std::string& connect_path,
                const std::string& out) {
  obs::Json doc = obs::parse_json(read_file(path));
  // Campaign "base" file references resolve client-side: the server
  // only accepts self-contained documents.
  doc = serve::inline_campaign_base(
      std::move(doc), std::filesystem::path(path).parent_path().string());

  serve::Client client = serve::Client::connect(connect_path);
  const obs::Json response = client.submit(std::move(doc));
  const std::string& status = response.at("status").as_string();
  if (status == "queue_full") {
    std::fprintf(stderr,
                 "mhp_run: server queue full (%lld in flight, capacity "
                 "%lld) — retry later\n",
                 static_cast<long long>(response.at("pending").as_int()),
                 static_cast<long long>(response.at("capacity").as_int()));
    return 3;
  }
  if (status != "ok") {
    const obs::Json* error = response.find("error");
    std::fprintf(stderr, "mhp_run: submission rejected (%s): %s\n",
                 status.c_str(),
                 error != nullptr && error->is_string()
                     ? error->as_string().c_str()
                     : "(no detail)");
    return 1;
  }

  const std::string& job = response.at("job").as_string();
  const std::size_t total = response.at("points").as_uint();
  std::printf("submitted %s as %s (%zu point(s), durable under %s)\n",
              path.c_str(), job.c_str(), total,
              response.at("dir").as_string().c_str());

  std::size_t seen = 0, failed = 0;
  bool done = false, have_report = false;
  obs::Json last_report;
  while (auto frame = client.next_frame()) {
    const obs::Json* kind = frame->find("frame");
    const obs::Json* frame_job = frame->find("job");
    if (kind == nullptr || frame_job == nullptr ||
        frame_job->as_string() != job)
      continue;
    if (kind->as_string() == "result") {
      ++seen;
      const std::string& point_status = frame->at("status").as_string();
      std::printf("serve: [%zu/%zu] %s %s\n", seen, total,
                  point_status.c_str(),
                  frame->at("key").as_string().c_str());
      if (point_status == "failed")
        std::fprintf(stderr, "mhp_run: point failed: %s\n",
                     frame->at("error").as_string().c_str());
      if (const obs::Json* report = frame->find("report")) {
        last_report = *report;
        have_report = true;
      }
    } else if (kind->as_string() == "done") {
      failed = frame->at("failed").as_uint();
      done = true;
      break;
    }
  }
  if (!done) {
    std::fprintf(stderr,
                 "mhp_run: server connection lost mid-stream (durable "
                 "results survive; resubmit to resume)\n");
    return 1;
  }
  if (!out.empty()) {
    if (total != 1 || !have_report) {
      std::fprintf(stderr,
                   "mhp_run: --out needs a single-scenario submission "
                   "that produced a report\n");
      return 1;
    }
    return obs::save_json(out, last_report) ? 0 : 1;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Flags flags(
      "run declarative scenario / campaign files (JSON) and emit reports");
  flags.flag("--validate-only", "parse and validate inputs, run nothing")
      .flag("--validate-trace",
            "strict-parse Chrome trace-event files, run nothing")
      .flag("--dump-defaults", "print the fully-defaulted scenario schema")
      .flag("--campaign", "treat the input as a campaign file")
      .flag("--serve", "run the campaign service daemon (needs --socket)")
      .flag("--submit",
            "submit the input to a serving mhp_run (needs --connect)")
      .option("--ctl", "OP",
              "send a control op (status|drain|shutdown) to a server")
      .option("--socket", "PATH", "UNIX socket the daemon listens on")
      .option("--connect", "PATH", "UNIX socket of the server to talk to")
      .option("--queue-cap", "N",
              "serve mode: max in-system points before queue_full "
              "(default 256)")
      .option("--out", "FILE", "write the scenario report here")
      .option("--out-dir", "DIR", "campaign output directory (default: .)")
      .option("--profile-out", "FILE",
              "profile the run and write Chrome trace-event JSON here")
      .option("--samples-out", "FILE",
              "write sim-time metric samples (JSONL) here")
      .option("--workers", "N",
              "campaign worker threads, or per-cluster routing threads "
              "for a multi_cluster run (0 = all cores)")
      .positional("file", 0, 64);
  flags.parse(argc, argv);

  try {
    if (flags.has("--dump-defaults")) {
      const std::string stack =
          flags.args().empty() ? "polling" : flags.args().front();
      return dump_defaults(stack);
    }
    if (flags.has("--validate-only")) {
      if (flags.args().empty()) {
        std::fprintf(stderr, "mhp_run: --validate-only needs input files\n");
        return 2;
      }
      return validate_only(flags.args());
    }
    if (flags.has("--validate-trace")) {
      if (flags.args().empty()) {
        std::fprintf(stderr, "mhp_run: --validate-trace needs input files\n");
        return 2;
      }
      return validate_trace(flags.args());
    }
    if (flags.has("--serve")) {
      if (!flags.args().empty()) {
        std::fprintf(stderr, "mhp_run: --serve takes no input files\n");
        return 2;
      }
      return serve_main(flags);
    }
    if (flags.has("--ctl")) {
      if (!flags.args().empty()) {
        std::fprintf(stderr, "mhp_run: --ctl takes no input files\n");
        return 2;
      }
      if (!flags.has("--connect")) {
        std::fprintf(stderr, "mhp_run: --ctl needs --connect PATH\n");
        return 2;
      }
      return ctl_main(flags.value("--ctl"), flags.value("--connect"));
    }
    if (flags.has("--submit")) {
      if (flags.args().size() != 1) {
        std::fprintf(stderr,
                     "mhp_run: --submit needs exactly one input file\n");
        return 2;
      }
      if (!flags.has("--connect")) {
        std::fprintf(stderr, "mhp_run: --submit needs --connect PATH\n");
        return 2;
      }
      return submit_main(flags.args().front(), flags.value("--connect"),
                         flags.value("--out"));
    }
    if (flags.args().size() != 1) {
      std::fprintf(stderr, "mhp_run: expected exactly one input file "
                           "(see --help)\n");
      return 2;
    }
    if (flags.has("--campaign")) {
      return run_campaign_file(flags.args().front(),
                               flags.value("--out-dir", "."),
                               flags.count_value("--workers", 0));
    }
    return run_one(flags.args().front(), flags.value("--out"),
                   flags.has("--workers")
                       ? std::optional(flags.count_value("--workers", 0))
                       : std::nullopt,
                   flags.value("--profile-out", ""),
                   flags.value("--samples-out", ""));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mhp_run: %s\n", e.what());
    return 1;
  }
}
