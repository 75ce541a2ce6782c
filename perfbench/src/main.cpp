// perfbench: one measured run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|smoke] [--perturb]
//
// Runs timed passes for about S seconds (at least one), then prints
// one JSON line of raw measurements: every pass's set-up/run/whole-pass
// wall and CPU times and output hash, peak RSS and, with --trace 1, the
// per-layer metrics.  Before the passes it runs the reference
// instance (smoke size, seed 1) through both the split path and
// run_scenario, so every run also checks a pinned output.  perfbench/
// run.py builds this program, compares the hashes against the pinned
// ones and turns the measurements into the benchmark's metrics.
//
// --trace 1 alternates an untraced and a traced pass (their wall-time
// ratio is the tracing overhead), then replays the workload's set-up
// chain once with the profiler on.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

std::size_t cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return 1;
}

namespace {

using mhp::obs::Json;
constexpr std::uint64_t kReferenceSeed = 1;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Metrics only the spans inside the simulator can give: the head's
/// plan_slot cost, the routing engine's decomposition time and probe
/// count.  Names already present are kept.
void add_span_metrics(const mhp::obs::ProfileData& data, LayerMetrics& m) {
  const mhp::obs::ProfileSummary sum = mhp::obs::summarize_profile(data);
  double plan_ms = 0, plan_count = 0, decompose_ms = 0, probes = 0;
  bool routed = false;
  for (const auto& [path, span] : sum.spans) {
    if (ends_with(path, "head/plan_slot")) {
      plan_ms += span.total_ms;
      plan_count += static_cast<double>(span.count);
    }
    if (ends_with(path, "decompose")) decompose_ms += span.total_ms;
    if (ends_with(path, "route/solve_balanced")) {
      routed = true;
      const auto it = span.counters.find("probes");
      if (it != span.counters.end()) probes += static_cast<double>(it->second);
    }
  }
  if (plan_count > 0)
    m.emplace("core.plan_slot_us", plan_ms * 1e3 / plan_count);
  if (routed) {
    m.emplace("route.decompose_ms", decompose_ms);
    m.emplace("route.probes", probes);
  }
}

/// Share of a traced pass's wall time covered by the benchmark's own
/// top-level spans (the calls it makes into each layer).
double span_coverage(const mhp::obs::ProfileData& data, double wall_s) {
  double covered_ns = 0;
  for (const mhp::obs::ProfileEvent& e : data.events)
    if (e.depth == 0 && data.paths[e.path].rfind("bench/", 0) == 0)
      covered_ns += static_cast<double>(e.dur_ns);
  return wall_s > 0 ? covered_ns * 1e-9 / wall_s : 0.0;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A pass that throws counts as one failed operation, not a crashed run.
Iteration safe_iterate(Workload& w) {
  try {
    return w.iterate();
  } catch (const std::exception& e) {
    Iteration it;
    it.failed = 1;
    it.error = e.what();
    return it;
  }
}

Json pass_json(const Iteration& it, bool traced) {
  return Json::object()
      .set("setup_s", Json(it.setup_s))
      .set("run_s", Json(it.run_s))
      .set("wall_s", Json(it.wall_s))
      .set("setup_cpu_s", Json(it.setup_cpu_s))
      .set("run_cpu_s", Json(it.run_cpu_s))
      .set("cpu_s", Json(it.cpu_s))
      .set("attempted", Json(it.attempted))
      .set("failed", Json(it.failed))
      .set("hash", Json(it.output_hash))
      .set("error", Json(it.error))
      .set("traced", Json(traced));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  bool perturb = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--size") {
      const std::string size = value();
      if (size != "full" && size != "smoke")
        throw std::invalid_argument("--size is full or smoke");
      o.size = size == "full" ? Size::kFull : Size::kSmoke;
    } else if (arg == "--perturb") {
      o.perturb = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

int run(const Options& o) {
  Json out = Json::object();
  out.set("workload", Json(o.workload))
      .set("seed", Json(o.seed))
      .set("size", Json(o.size == Size::kFull ? "full" : "smoke"))
      .set("cores", Json(cores()));

  {
    const auto ref =
        make_workload(o.workload, kReferenceSeed, Size::kSmoke, o.perturb);
    const Iteration it = safe_iterate(*ref);
    out.set("reference_hash", Json(it.output_hash))
        .set("reference_error", Json(it.error.empty() ? ref->facade_check()
                                                      : it.error));
  }

  const auto w = make_workload(o.workload, o.seed, o.size, o.perturb);
  mhp::obs::Profiler& prof = mhp::obs::Profiler::instance();
  Json passes = Json::array();
  std::vector<LayerMetrics> traced;
  // A pass (or traced pair) starts only if it should end within the
  // window, so a run takes about --seconds whatever the pass length.
  const auto t0 = Clock::now();
  std::size_t rounds = 0;
  do {
    ++rounds;
    const Iteration plain = safe_iterate(*w);
    passes.push_back(pass_json(plain, false));
    if (!o.trace) continue;

    prof.drain();
    prof.enable();
    const Iteration it = safe_iterate(*w);
    prof.disable();
    const mhp::obs::ProfileData data = prof.drain();
    passes.push_back(pass_json(it, true));
    LayerMetrics m = it.layers;
    add_span_metrics(data, m);
    m["obs.span_coverage"] = span_coverage(data, it.wall_s);
    m["obs.trace_overhead"] = plain.wall_s > 0 ? it.wall_s / plain.wall_s : 0;
    traced.push_back(std::move(m));
  } while (seconds_since(t0) * (rounds + 1) / rounds <= o.seconds);

  if (o.trace) {
    // Per-name median over the traced passes, then the replay fills the
    // names the passes' own calls did not reach.
    LayerMetrics layers;
    for (const auto& [name, _] : traced.front()) {
      std::vector<double> values;
      for (const LayerMetrics& m : traced)
        if (const auto it = m.find(name); it != m.end())
          values.push_back(it->second);
      layers[name] = median_of(values);
    }
    prof.drain();
    prof.enable();
    LayerMetrics replayed;
    const bool replay_ok = w->replay(replayed);
    prof.disable();
    add_span_metrics(prof.drain(), replayed);
    for (const auto& [name, value] : replayed) layers.emplace(name, value);
    Json layer_json = Json::object();
    for (const auto& [name, value] : layers) layer_json.set(name, Json(value));
    out.set("layers", std::move(layer_json)).set("replay_ok", Json(replay_ok));
  }
  out.set("passes", std::move(passes))
      .set("peak_rss_mb", Json(peak_rss_mb()));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
