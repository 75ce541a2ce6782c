// Campaigns: one base scenario × a parameter grid, executed as a batch
// with durable, resumable results.
//
// A campaign document names a base scenario (inline or by file path)
// and a "sweep" object mapping dotted scenario paths to value lists:
//
//   { "name": "order_sweep",
//     "base": "fig7a.json",
//     "sweep": { "protocol.oracle_order": [2, 3],
//                "deployment.n_sensors": [20, 30, 40] } }
//
// Expansion is the cross product in declaration order (last key varies
// fastest).  Every point gets a stable key string.  Both executors — the
// local run_campaign and the daemon (src/serve) — run a point through
// run_point and record it through a JobLog, which appends one line per
// finished point to results.jsonl and manifest.jsonl, so a killed
// campaign re-run skips every point the manifest already records.
// Per-point failures are isolated: the error text lands in the manifest
// and the remaining points still run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "scenario/scenario.hpp"

namespace mhp::scenario {

struct CampaignPoint {
  /// Stable identity: "path=value,path=value" in sweep declaration
  /// order.  Manifest keys match on this across runs.
  std::string key;
  /// The base scenario document with this point's overrides applied.
  obs::Json doc;
};

struct Campaign {
  std::string name;
  /// The base scenario, canonicalized (parsed and re-dumped in full
  /// form) so every sweep path resolves against the complete schema.
  obs::Json base;
  /// (dotted path, values) in declaration order.
  std::vector<std::pair<std::string, std::vector<obs::Json>>> sweep;
};

/// Parse a campaign document.  `load_file` resolves a "base" given as a
/// file path (relative to the campaign file's directory is the caller's
/// concern); an inline object base needs no loader.
Campaign parse_campaign(
    const obs::Json& doc,
    const std::function<std::string(const std::string&)>& load_file);

/// Set the value at a dotted path ("protocol.oracle_order") inside a
/// scenario document.  The full path must already exist — sweeping an
/// unknown or misspelled path is an error, not a new key.
void set_by_path(obs::Json& doc, const std::string& path, obs::Json value);

/// Cross-product expansion in declaration order (last key fastest).
/// Every point's document has been validated by parse_scenario.
std::vector<CampaignPoint> expand_campaign(const Campaign& campaign);

/// One point's outcome: the report on success, the error text on
/// failure.
struct PointOutcome {
  obs::Json report;
  std::string error;  // empty when the point succeeded
  /// Wall time of parse + run; zero unless run.record_perf, so the
  /// record stays a pure function of the scenario (byte-stable goldens).
  double wall_ms = 0.0;
};

/// Run one point: strict parse of its document, profiling forced off
/// (the profiler's enable/drain cycle is process-global, so concurrent
/// points would corrupt each other's summaries), then run_scenario.
/// Every exception the point raises becomes its error text.
PointOutcome run_point(const CampaignPoint& point);

/// The durable record of one campaign directory, shared by the local
/// runner and the daemon:
///   results.jsonl  — one envelope {"key","scenario","point_wall_ms",
///                    "report"} per ok point, appended as points finish;
///   manifest.jsonl — one {"key","status"[,"error"]} per finished point;
///   summary.json   — aggregate roll-up over every ok point on record,
///                    including a point_wall_ms latency histogram.
/// Every line is flushed as it is appended, so a killed run loses at
/// most a torn tail line, which read_keyed_jsonl skips.  Not
/// thread-safe: callers serialize record().
class JobLog {
 public:
  /// Create `dir` if missing, read its manifest and open both logs for
  /// appending.  Check is_open() before recording.
  explicit JobLog(std::string dir);

  bool is_open() const { return results_.is_open() && manifest_.is_open(); }

  /// True when the manifest's last word on `key` is "ok": the point is
  /// done and a resume skips it.  Failed points are retried.
  bool finished(const std::string& key) const {
    return finished_.count(key) > 0;
  }

  /// Append the point's manifest line, and its results line when it
  /// succeeded.
  void record(const CampaignPoint& point, const PointOutcome& outcome);

  /// Every results line on record, keyed as read_keyed_jsonl does.
  std::vector<std::pair<std::string, obs::Json>> read_results() const;

  /// Roll up every ok point on record (this run and earlier ones) into
  /// summary.json; `total` is the expansion size points/total reports.
  void write_summary(const std::string& campaign_name,
                     std::size_t total) const;

 private:
  std::string dir_;
  std::unordered_set<std::string> finished_;
  std::ofstream results_, manifest_;
};

struct CampaignResult {
  std::size_t total = 0;        // points in the expansion
  std::size_t skipped = 0;      // already completed per the manifest
  std::size_t ok = 0;           // run and succeeded this invocation
  std::size_t failed = 0;       // run and failed this invocation
  std::size_t interrupted = 0;  // not dispatched (stop flag was raised)
};

/// Execute `campaign` into `out_dir` (created if missing) using
/// `workers` threads (0 = hardware concurrency), recording through a
/// JobLog.  Points the manifest already records as "ok" are skipped
/// (resume); failed points are retried.  `log` (nullable FILE*) receives
/// one progress line per point.  When `stop` is non-null and becomes
/// true (e.g. from a SIGINT handler), points not yet dispatched are
/// abandoned without manifest lines — in-flight points finish and flush,
/// so a later run resumes having lost nothing that completed.
CampaignResult run_campaign(const Campaign& campaign,
                            const std::string& out_dir, std::size_t workers,
                            std::FILE* log,
                            const std::atomic<bool>* stop = nullptr);

/// Last-wins key→document map from a JSONL file whose lines carry a
/// string "key", in order of each key's first appearance.  Lines that
/// fail to parse (the torn tail of a killed run) are skipped, not fatal
/// — the affected point simply reruns.
std::vector<std::pair<std::string, obs::Json>> read_keyed_jsonl(
    const std::string& path);

}  // namespace mhp::scenario
