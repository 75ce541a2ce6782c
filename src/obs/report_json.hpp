// JSON exporters for every report/snapshot type the stacks produce.
//
// The serialized layout is stable and insertion-ordered (diffable run to
// run): counters stay integers, doubles round-trip exactly, labeled
// per-node series appear both verbatim inside "metrics" and regrouped as
// id→value maps under "per_node".  `schema` stamps a version so
// downstream tooling can detect layout changes.
#pragma once

#include <string>

#include "metrics/registry.hpp"
#include "net/deployment.hpp"
#include "obs/json.hpp"
#include "sim/runtime.hpp"

namespace mhp {
struct SimulationReport;
struct SmacReport;
struct MultiClusterReport;
struct DegradationReport;
struct OracleCacheStats;
}  // namespace mhp

namespace mhp::obs {

/// Schema version stamped into every top-level report document.
inline constexpr int kReportSchemaVersion = 1;

Json to_json(const MetricsSnapshot& snap);
Json to_json(const RunStats& stats);
Json to_json(const OracleCacheStats& oracle);
Json to_json(const DegradationReport& deg);
Json to_json(const SimulationReport& report);
Json to_json(const SmacReport& report);
Json to_json(const MultiClusterReport& report);
Json to_json(const Deployment& deployment);

/// Wrap a report body into the standard envelope:
/// {"schema":1,"kind":<kind>,"report":<body>}.
Json report_envelope(std::string kind, Json body);

/// Pretty-print `value` to `path`.  Returns false (after a one-line note
/// on stderr) when the file cannot be written.
bool save_json(const std::string& path, const Json& value, int indent = 2);

}  // namespace mhp::obs
