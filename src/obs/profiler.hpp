// Hierarchical span profiler: where does host wall time go?
//
// MHP_SPAN("route/probe") opens an RAII span on the calling thread;
// nesting spans builds slash-joined paths ("mc/routing/route/probe"), so
// one aggregated view attributes every phase of the pipeline — topology
// build, routing solves, scheduling, the polling event loop — to a
// stable name.  MHP_SPAN_COUNTER("probes", n) attaches a named count to
// the innermost open span (oracle hits, δ-probes, events processed).
//
// Recording is designed for the hot path and for util::ThreadPool
// workers (route::solve_clusters, campaign sweeps):
//   * disabled mode is one relaxed atomic load per span — no
//     allocation, no clock read, and nothing observable anywhere else
//     (reports stay byte-identical);
//   * enabled mode appends to lock-free per-thread chunked buffers
//     (the owning thread publishes a count with release semantics and
//     never moves written events, so a quiescent-point collector reads
//     them race-free and merges across any worker count);
//   * span paths are interned in one global table behind a mutex: every
//     span open takes that mutex and probes the table (a miss also adds
//     the path), so a span costs two clock reads plus one locked hash
//     lookup.
//
// Collection happens at quiescent points only (after parallel work has
// joined): drain() hands back every event recorded since the previous
// drain.  Exporters turn a drain into (a) Chrome trace-event JSON that
// loads in Perfetto / chrome://tracing and (b) a per-path summary
// (count/total/p50/p95 via util::Histogram) that reports embed under
// "profile".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace mhp::obs {

/// A finished span, as drained from the per-thread buffers.  Times are
/// nanoseconds since the profiler epoch (first enable()).
struct ProfileEvent {
  std::uint32_t path = 0;   // index into ProfileData::paths
  std::uint32_t depth = 0;  // 0 = top-level span on its thread
  std::uint32_t tid = 0;    // profiler-assigned thread index
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  /// Attached counters (name pointer is the macro's string literal;
  /// nullptr marks unused slots).  At most kMaxCounters distinct names
  /// per span; further names are dropped and tallied by the profiler.
  static constexpr std::size_t kMaxCounters = 9;
  struct Counter {
    const char* name = nullptr;
    std::uint64_t value = 0;
  };
  std::array<Counter, kMaxCounters> counters{};
};

/// One drain()'s worth of events plus the path strings they index.
struct ProfileData {
  std::vector<std::string> paths;   // path id -> slash-joined name
  std::vector<ProfileEvent> events; // ordered by (tid, completion)
  bool empty() const { return events.empty(); }
};

/// Aggregation of a ProfileData by span path.
struct ProfileSummary {
  struct PerPath {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    double p50_ms = 0.0;  // from util::Histogram over the durations
    double p95_ms = 0.0;
    std::map<std::string, std::uint64_t> counters;
  };
  std::map<std::string, PerPath> spans;  // keyed by path, sorted
  /// Wall time covered by top-level (depth 0) spans — the numerator of
  /// the "how much of the pipeline is attributed?" question.
  double attributed_ms = 0.0;
  std::size_t threads = 0;
};

class Profiler {
 public:
  /// The process-wide profiler every MHP_SPAN records into.
  static Profiler& instance();

  /// Fast global gate, checked inline by the macros.
  static bool enabled() {
    return g_enabled.load(std::memory_order_relaxed);
  }

  /// Turn recording on.  The first enable() of the process stamps the
  /// epoch all event times are relative to.  Idempotent.
  void enable();
  /// Turn recording off.  Spans already open finish recording normally
  /// (their scope captured the decision at open time).
  void disable();

  /// Collect every event recorded since the previous drain, across all
  /// threads that ever recorded.  Call at a quiescent point only — i.e.
  /// no MHP_SPAN may be concurrently *closing* on another thread
  /// (ThreadPool::parallel_for has joined, simulations have returned).
  ProfileData drain();

  /// Spans dropped because the per-thread open-span stack overflowed
  /// (depth > kMaxDepth) plus counters dropped for want of a slot.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kMaxDepth = 64;

  // --- macro back-end (not part of the public surface) ---
  static void open_span(const char* name);
  static void close_span();
  static void attach_counter(const char* name, std::uint64_t value);

 private:
  Profiler() = default;

  static std::atomic<bool> g_enabled;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Aggregate a drain by path.  `zero_times` replaces every duration
/// figure (total/min/max/p50/p95, attributed_ms) with 0.0 while keeping
/// counts, paths and attached counters — the deterministic skeleton
/// scenario reports embed when run.record_perf is false.
ProfileSummary summarize_profile(const ProfileData& data,
                                 bool zero_times = false);

/// {"spans": {path: {count, total_ms, ...}}, "attributed_ms", "threads"}.
Json to_json(const ProfileSummary& summary);

/// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}
/// with one complete ("ph":"X") event per span, attached counters in
/// "args".  Loads in Perfetto and chrome://tracing; round-trips through
/// obs::parse_json.
Json chrome_trace_json(const ProfileData& data);

/// RAII span scope used by MHP_SPAN.  Captures the enabled decision at
/// construction so a mid-span disable() cannot unbalance the stack.
class ProfileSpanScope {
 public:
  explicit ProfileSpanScope(const char* name)
      : opened_(Profiler::enabled()) {
    if (opened_) Profiler::open_span(name);
  }
  ~ProfileSpanScope() {
    if (opened_) Profiler::close_span();
  }
  ProfileSpanScope(const ProfileSpanScope&) = delete;
  ProfileSpanScope& operator=(const ProfileSpanScope&) = delete;

 private:
  bool opened_;
};

}  // namespace mhp::obs

#define MHP_SPAN_CONCAT2(a, b) a##b
#define MHP_SPAN_CONCAT(a, b) MHP_SPAN_CONCAT2(a, b)

/// Open a profiler span for the rest of the enclosing scope.  `name` must
/// be a string literal (it is stored by pointer).
#define MHP_SPAN(name) \
  ::mhp::obs::ProfileSpanScope MHP_SPAN_CONCAT(mhp_span_, __LINE__)(name)

/// Add `value` to counter `name` of the innermost open span of this
/// thread.  No-op when profiling is disabled or no span is open.
#define MHP_SPAN_COUNTER(name, value)                                   \
  do {                                                                  \
    if (::mhp::obs::Profiler::enabled())                                \
      ::mhp::obs::Profiler::attach_counter(                             \
          name, static_cast<std::uint64_t>(value));                     \
  } while (0)
