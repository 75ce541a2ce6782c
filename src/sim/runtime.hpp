// The shared simulation runtime: one object owning the substrate every
// simulation stack needs — discrete-event Simulator, SINR Channel(s),
// propagation model, MetricsRegistry, frame uid source and the
// root Rng — so PollingSimulation, MultiClusterSimulation and
// SmacSimulation assemble protocol agents on top of identical plumbing
// instead of hand-wiring their own.  Cross-stack features (metrics,
// fault injection, new channel models, the sim-time sampler) are
// implemented here once.
//
// Reports share a common core too: RunStats holds the fields every
// stack measures, populated from the registry by collect_run_stats(),
// and embeds a MetricsSnapshot for uniform observability.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "fault/fault_injector.hpp"
#include "metrics/registry.hpp"
#include "net/packet.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "radio/propagation.hpp"
#include "sim/sampler.hpp"
#include "sim/simulator.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace mhp {

/// Knobs of the runtime substrate, independent of any protocol config.
/// The experiment harness threads one of these through to every
/// simulation it constructs (see exp/fig_common.hpp).
struct RuntimeOptions {
  /// No effect: nothing reads it.  perfbench/src/workloads.cpp copies
  /// Scenario::trace_max_entries into it; the benchmark re-pin (ROADMAP
  /// direction 1) deletes both members together with that line.
  std::size_t trace_max_entries = std::size_t{1} << 20;
  /// Worker threads for routing solves (0 = hardware concurrency).  The
  /// multi-cluster stack fans whole-cluster solves across them; a
  /// single-cluster run solves serially and ignores it.  Results are
  /// byte-identical for any value — cluster solves are pure functions
  /// with indexed result slots.
  std::size_t route_workers = 1;
  /// When set, a MetricsSampler is installed and started: one JSONL
  /// sample of the watched metrics per `sample_period` of sim time.
  /// The sampler's recurring event counts toward events_processed, so
  /// sampled runs are not event-count-identical to unsampled ones —
  /// which is why this is off by default.
  std::ostream* samples_stream = nullptr;
  Time sample_period = Time::seconds(1.0);
};

/// The report core shared by every simulation stack.
struct RunStats {
  double measured_seconds = 0.0;
  double offered_bps = 0.0;      // bytes/s generated by sensors
  double throughput_bps = 0.0;   // bytes/s delivered at the sink(s)
  double delivery_ratio = 0.0;   // delivered / generated packets
  std::uint64_t packets_generated = 0;
  std::uint64_t packets_delivered = 0;
  double mean_active_fraction = 0.0;  // sensors' awake share of time
  double mean_latency_s = 0.0;
  /// Delivery-latency distribution (registry histogram metric::kLatencyHistS;
  /// zero when the stack recorded no samples).
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  /// Sensor queue-depth distribution (metric::kQueueDepth).
  double queue_depth_p50 = 0.0;
  double queue_depth_p95 = 0.0;
  double queue_depth_p99 = 0.0;
  /// Host-side perf accounting stamped by the runtime's run recorder:
  /// wall-clock spent on the measured window and simulator events
  /// processed in it.  Non-deterministic — never golden-tested.
  double wall_seconds = 0.0;
  std::uint64_t events_processed = 0;
  double events_per_sec = 0.0;
  /// Everything the stack recorded into the runtime's MetricsRegistry.
  MetricsSnapshot metrics;
};

/// Standard registry names collect_run_stats() reads.  Stacks may record
/// any further names they like; these are the shared contract.
namespace metric {
inline constexpr const char* kPacketsGenerated = "packets.generated";
inline constexpr const char* kPacketsDelivered = "packets.delivered";
inline constexpr const char* kPacketsLost = "packets.lost";
inline constexpr const char* kBytesDelivered = "bytes.delivered";
inline constexpr const char* kChannelFramesTx = "channel.frames_tx";
inline constexpr const char* kMeanActiveFraction = "sensors.mean_active";
inline constexpr const char* kMeanLatencyS = "latency.mean_s";
/// Distributions (registry HistogramMetric).
inline constexpr const char* kLatencyHistS = "latency.hist_s";
inline constexpr const char* kQueueDepth = "queue.depth";
/// Compatibility-oracle cache effectiveness (CachedOracle, core).
inline constexpr const char* kOracleCacheHit = "oracle.cache_hit";
inline constexpr const char* kOracleCacheMiss = "oracle.cache_miss";
/// Per-node labeled series — combine with node_metric(base, id).
inline constexpr const char* kNodeEnergyJ = "node.energy_j";
inline constexpr const char* kNodeAwakeS = "node.awake_s";
inline constexpr const char* kNodeRelayed = "node.packets_relayed";
inline constexpr const char* kNodeFramesTx = "node.frames_tx";
}  // namespace metric

/// Delivery snapshots behind a degradation block's before/after ratios:
/// totals at the first death, and at the latest repair (until a repair,
/// the first death).
struct DeliveryLedger {
  bool have_first_death = false;
  std::uint64_t death_generated = 0, death_delivered = 0;
  std::uint64_t repair_generated = 0, repair_delivered = 0;

  /// Snapshot on a node death; only the first one counts.
  void on_death(std::uint64_t generated, std::uint64_t delivered);
  void on_repair(std::uint64_t generated, std::uint64_t delivered) {
    repair_generated = generated;
    repair_delivered = delivered;
  }
};

/// Attach `stats`' channel counters (propagation calls, row hits, misses
/// and overflows, audible entries) to the innermost open profiler span.
/// They stay out of the reports.
void span_channel_counters(const ChannelStats& stats);

class SimRuntime {
 public:
  /// `seed` feeds the root Rng all agent streams split from.
  explicit SimRuntime(std::uint64_t seed, const RuntimeOptions& opts = {});

  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  FrameUidSource& uids() { return uids_; }
  /// The root random stream; stacks split() per-agent children off it.
  Rng& root_rng() { return root_rng_; }

  /// Install the propagation model every channel of this runtime uses.
  /// Must be called exactly once, before the first add_channel().
  Propagation& adopt_propagation(std::unique_ptr<Propagation> propagation);
  const Propagation& propagation() const;

  /// Construct a channel on this runtime's simulator and propagation.
  /// Multi-cluster stacks add one per isolated frequency; most stacks
  /// add exactly one.  References stay valid for the runtime's lifetime.
  Channel& add_channel(RadioParams params, std::vector<Vec2> positions,
                       std::vector<double> tx_power_w);
  Channel& channel(std::size_t index = 0) { return *channels_.at(index); }
  std::size_t num_channels() const { return channels_.size(); }
  /// Work and memory counters summed over every channel.
  ChannelStats channel_stats() const;

  /// Install the fault injector for `plan` on this runtime's simulator.
  /// At most one per runtime; stacks call this only for a non-empty plan
  /// so fault-free runs carry no injector at all.  The caller wires its
  /// death handler and battery budgets, then arm()s it.
  FaultInjector& install_faults(const FaultPlan& plan);
  /// The installed injector, or nullptr when faults are off.
  FaultInjector* faults() { return faults_.get(); }

  /// Install the sim-time metrics sampler (at most one per runtime).
  /// The caller sets up its watch list / refresh hooks, then start()s it.
  /// Stacks install one only when a samples sink was requested, so
  /// sampler-free runs schedule no extra events.
  MetricsSampler& install_sampler(const MetricsSampler::Options& opts);
  /// The installed sampler, or nullptr when sampling is off.
  MetricsSampler* sampler() { return sampler_.get(); }

  /// Forget warmup: zero counters, restart gauge windows, forget
  /// histogram samples and rebase the channels' frame totals so metrics
  /// cover the measured window only.  Also restarts the run recorder's
  /// wall clock and event baseline.
  void begin_measurement();

  /// Build the shared report core from the registry's standard names
  /// (see namespace metric) plus a fresh snapshot.  `data_bytes` sizes
  /// the offered-load computation; also mirrors the channels' frame
  /// totals into the registry first.
  RunStats collect_run_stats(Time measured, std::uint32_t data_bytes);

  /// Export one node's per-node series (see metric::kNode*) under `id`.
  void export_node(std::uint64_t id, const EnergyMeter& meter,
                   std::uint64_t relayed, std::uint64_t frames_tx);

  /// Complete a degradation block whose head-side counts (deaths_detected,
  /// replans, orphaned_sensors) the caller has set: deaths from the fault
  /// injector, and delivery before the first death and after the last
  /// repair from `ledger` and the run's end totals.  Also records the
  /// four fault.* counters.
  DegradationReport collect_degradation(DegradationReport deg,
                                        const DeliveryLedger& ledger,
                                        std::uint64_t generated,
                                        std::uint64_t delivered);

 private:
  Simulator sim_;
  MetricsRegistry metrics_;
  FrameUidSource uids_;
  Rng root_rng_;
  std::unique_ptr<Propagation> propagation_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::uint64_t frames_at_window_begin_ = 0;
  // Run recorder: wall clock + event baseline of the measured window.
  std::chrono::steady_clock::time_point wall_begin_;
  std::uint64_t events_at_window_begin_ = 0;
};

}  // namespace mhp
