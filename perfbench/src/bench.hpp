// Shared vocabulary of the end-to-end benchmark program: what one timed
// pass of a workload reports, and the per-layer metric map a traced pass
// fills.  See perfbench/README.md for the workloads and the metric map.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has used so far, summed over its threads.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and process CPU time since construction.  CPU time leaves out the
/// time the process waits for a core, which on a shared host depends on
/// the neighbours, not on the program; the end-to-end times report it.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();

  double wall_s() const { return seconds_since(wall0); }
  double cpu_s() const { return cpu_seconds() - cpu0; }
};

/// Per-layer metric name → value.  A traced pass records what its own
/// calls measured; the set-up replay fills the names still missing.
using LayerMetrics = std::map<std::string, double>;

/// One timed pass of a workload.  Each phase has a wall time and a
/// process CPU time.
struct Iteration {
  double setup_s = 0.0;  // parsed input → stack ready to run
  double run_s = 0.0;    // the run() call / run_offline / the served jobs
  double wall_s = 0.0;   // the whole pass
  double setup_cpu_s = 0.0;
  double run_cpu_s = 0.0;
  double cpu_s = 0.0;
  std::size_t attempted = 1;  // operations: campaign points, else 1
  std::size_t failed = 0;     // operations that threw or were refused
  /// FNV-1a of the simulated output with host-side timing fields
  /// stripped; run.py compares it against the pinned value.
  std::string output_hash;
  std::string error;  // first failure, empty when none
  /// Per-layer values this pass measured with its own calls (parse,
  /// deploy, report, the reports' event and oracle counts, serve-layer
  /// latencies); a traced run reports them for its traced passes.
  LayerMetrics layers;
};

/// Workload sizes: the measured configuration, or the reduced one the
/// smoke test and the per-run reference check use.
enum class Size { kFull, kSmoke };

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass over the inputs built at construction.  Every public call
  /// into the simulator is wrapped in a "bench/..." profiler span, so a
  /// pass run with the profiler enabled attributes its wall time.
  virtual Iteration iterate() = 0;
  /// Re-run the set-up chain of the workload's deployment(s) through
  /// public functions, outside any timed pass, recording per-layer
  /// metrics into `out`.  Returns false when a cross-check failed.
  virtual bool replay(LayerMetrics& out) = 0;
  /// Cross-check against the mhp_run entry point (run_scenario) where the
  /// workload is one scenario document: "" when the reports agree.
  virtual std::string facade_check() { return ""; }
};

/// CPUs this process may run on (what nproc prints).
std::size_t cores();

/// `perturb` alters every simulated output before it is hashed, so the
/// smoke test can show the output check trips.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size,
                                        bool perturb);

/// The workloads make_workload accepts.
const std::vector<std::string>& workload_names();

/// Drop host-side timing fields (wall_seconds, events_per_sec,
/// point_wall_ms) at any depth, so the rest is a pure function of the
/// input.
mhp::obs::Json strip_host_fields(const mhp::obs::Json& doc);

}  // namespace perfbench
