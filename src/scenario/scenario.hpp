// Declarative scenarios: a JSON document that fully describes one
// simulation run — deployment, stack, protocol/S-MAC overrides, fault
// plan, run window and runtime knobs — so experiments are launched from
// files instead of recompiled C++ (ns-3 style).
//
// The schema is strict both ways:
//  * parse_scenario rejects unknown keys and wrong types with
//    path-qualified messages ("scenario.protocol.oracle_order: expected
//    integer, got string"), so a typo can never silently fall back to a
//    default;
//  * scenario_to_json emits every field of every relevant section in a
//    fixed canonical order, so `--dump-defaults | parse | dump` is
//    byte-identical and a dumped scenario is a complete, self-describing
//    record of the run.
//
// Time fields are strings ("20us", "1s", "1.5ms"); see parse_duration.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/smac_config.hpp"
#include "core/multi_cluster_sim.hpp"
#include "core/protocol_config.hpp"
#include "net/deployment.hpp"
#include "obs/json.hpp"
#include "util/geometry.hpp"

namespace mhp::scenario {

/// Any schema violation: unknown key, wrong type, bad duration, value
/// out of range, section not valid for the selected stack.  The message
/// always starts with the dotted path of the offending field.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which simulation facade the scenario drives.
enum class StackKind { kPolling, kMultiCluster, kSmac };

const char* to_string(StackKind stack);

/// Node placement.  Which keys are valid depends on `kind`; the parser
/// rejects keys that do not apply (e.g. `spacing` outside "rings").
struct DeploymentSpec {
  enum class Kind {
    kConnectedUniformSquare,  // redraw until every sensor has a relay path
    kUniformSquare,
    kGrid,
    kRings,
    kExplicit,  // positions listed in the file
  };
  Kind kind = Kind::kConnectedUniformSquare;
  std::size_t n_sensors = 30;
  double side = 200.0;         // square kinds
  double sensor_range = 60.0;  // connectivity check (connected kind only)
  std::uint64_t seed = 1;      // random kinds
  std::size_t rings = 3;       // rings kind
  std::size_t per_ring = 8;
  double spacing = 40.0;
  std::vector<Vec2> sensors;  // explicit kind: [x, y] pairs
  Vec2 head{0.0, 0.0};

  /// Sensor count implied by the spec, whatever the kind.
  std::size_t sensor_count() const {
    switch (kind) {
      case Kind::kRings:
        return rings * per_ring;
      case Kind::kExplicit:
        return sensors.size();
      default:
        return n_sensors;
    }
  }
};

const char* to_string(DeploymentSpec::Kind kind);

/// Offered load: one uniform per-sensor rate, or an explicit per-sensor
/// list (mutually exclusive keys).
struct TrafficSpec {
  double rate_bps = 20.0;
  std::vector<double> rates_bps;  // non-empty → overrides rate_bps
};

/// The measurement window.
struct RunSpec {
  Time duration = Time::sec(40);
  Time warmup = Time::sec(10);
  /// When false, the report's host-side perf numbers (wall_seconds,
  /// events_per_sec) are zeroed so the document is fully deterministic —
  /// the same scenario always produces byte-identical output.
  bool record_perf = true;
};

/// Field layout for the multi_cluster stack: a grid_x × grid_y grid of
/// clusters, each deployed from the shared DeploymentSpec with seed
/// `deployment.seed + cluster_index`.
struct ClusterFieldSpec {
  std::size_t grid_x = 2;
  std::size_t grid_y = 2;
  double pitch = 220.0;
  InterClusterMode mode = InterClusterMode::kColored;
  double interference_range = 400.0;
};

/// The schema's name of an inter-cluster mode ("shared", "colored",
/// "token").
const char* to_string(InterClusterMode mode);

struct Scenario {
  std::string name;
  StackKind stack = StackKind::kPolling;
  DeploymentSpec deployment;
  TrafficSpec traffic;
  RunSpec run;
  /// "runtime" section (SimRuntime substrate knobs expressible in JSON).
  /// runtime.trace_max_entries: parsed, checked >= 1 and dumped, but has
  /// no effect.  It stays until the benchmark re-pin (ROADMAP direction
  /// 1) deletes it together with perfbench/src/workloads.cpp's copy of it
  /// into RuntimeOptions, so --dump-defaults keeps its bytes until then.
  std::size_t trace_max_entries = std::size_t{1} << 20;
  /// Worker threads for routing solves (0 = all cores): per-cluster
  /// fan-out on the multi_cluster stack; the polling stack routes its one
  /// cluster serially.  Reports are byte-identical for any value.
  std::size_t route_workers = 1;
  /// Record hierarchical profiler spans for this run; the report
  /// envelope gains a "profile" summary and run_scenario's trace sink
  /// (mhp_run --profile-out) receives Chrome trace-event JSON.  With
  /// run.record_perf false the summary's wall times are zeroed (span
  /// counts and counters kept) so the document stays deterministic.
  bool profile = false;
  /// Sim-time metrics sampling cadence; zero = sampling off.  Takes
  /// effect only when a samples sink is provided (mhp_run
  /// --samples-out).  The sampler's recurring event makes
  /// events_processed differ from an unsampled run.
  Time sample_period = Time::zero();
  /// polling / multi_cluster stacks; carries the fault plan and recovery
  /// config parsed from the top-level "faults" / "recovery" sections.
  ProtocolConfig protocol;
  /// smac stack; carries the fault plan from the "faults" section.
  SmacConfig smac;
  /// multi_cluster stack only.
  ClusterFieldSpec clusters;
};

/// The fully-defaulted scenario for `stack` (`mhp_run --dump-defaults`).
Scenario default_scenario(StackKind stack);

/// Strict parse + validation of a scenario document.  Throws
/// ScenarioError with a path-qualified message on any violation.
Scenario parse_scenario(const obs::Json& doc);

/// Convenience: parse the JSON text first (JsonParseError carries
/// line:column), then the scenario.
Scenario parse_scenario_text(std::string_view text);

/// Canonical serialization: every field of every section relevant to the
/// scenario's stack, fixed order.  parse(scenario_to_json(s)) == s and
/// the dump of a parsed dump is byte-identical.
obs::Json scenario_to_json(const Scenario& s);

/// Parse a duration string: a non-negative number followed immediately
/// by one of ns/us/ms/s ("20us", "1s", "1.5ms").  Throws ScenarioError
/// (message not path-qualified; callers prefix their path).
Time parse_duration(std::string_view text);

/// Canonical duration format: integer count in the largest unit that
/// divides the value exactly ("1s", "1500us"), so re-parsing is exact.
std::string format_duration(Time t);

}  // namespace mhp::scenario
