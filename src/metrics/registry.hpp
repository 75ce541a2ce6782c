// Named runtime metrics shared by every simulation stack.
//
// A MetricsRegistry holds monotonic counters (event totals: packets
// generated, frames transmitted, ...), time-weighted gauges (sampled
// values whose average must weight each sample by how long it was
// current: queue depth, mean active fraction, ...) and sampled
// distributions (fixed-bin histograms with exact moments: per-packet
// latency, instantaneous queue depth, ...).  Simulations write into the
// registry while they run; reports embed a MetricsSnapshot so downstream
// tooling sees one uniform name→value view regardless of which stack
// produced it.  Lookups use std::map so snapshots iterate in a
// deterministic order.
//
// Per-node series use labeled names: node_metric("node.energy_j", 7)
// yields "node.energy_j{node=7}", and MetricsSnapshot::labeled_* collect
// every node's value of one base name back into an id→value map.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace mhp {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Time-weighted gauge: set() stamps a new value at a simulation time;
/// mean() weights each value by how long it stayed current.
class Gauge {
 public:
  void set(Time now, double value);

  double last() const { return value_; }

  /// Time-weighted mean over [window start, now].  Equals last() when the
  /// window has zero width (a single end-of-run summary sample).
  double mean(Time now) const;

  /// Start a new averaging window at `now`, keeping the current value.
  void restart(Time now);

 private:
  bool ever_set_ = false;
  double value_ = 0.0;
  double integral_ = 0.0;  // ∫ value dt over the current window, in seconds
  Time window_start_ = Time::zero();
  Time last_set_ = Time::zero();
};

/// Sampled distribution: a fixed-bin Histogram (for quantiles) plus a
/// Welford Accumulator (for exact count/mean/min/max).  Out-of-range
/// samples clamp to the edge bins, so counts are always preserved.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins)
      : hist_(lo, hi, bins) {}

  void observe(double x) {
    hist_.add(x);
    // NaN would poison the Welford moments; the histogram tallies it in
    // dropped() and the accumulator never sees it.
    if (!std::isnan(x)) acc_.add(x);
  }

  std::uint64_t count() const { return acc_.count(); }
  /// NaN observations rejected (see Histogram::dropped).
  std::uint64_t dropped() const { return hist_.dropped(); }
  double mean() const { return acc_.empty() ? 0.0 : acc_.mean(); }
  double min() const { return acc_.empty() ? 0.0 : acc_.min(); }
  double max() const { return acc_.empty() ? 0.0 : acc_.max(); }
  /// Approximate quantile from bin midpoints; 0 when empty.
  double quantile(double q) const {
    return acc_.empty() ? 0.0 : hist_.quantile(q);
  }

  const Histogram& bins() const { return hist_; }

  /// Forget all samples, keeping the bin shape (begin_window support).
  void reset() {
    hist_.clear();
    acc_ = Accumulator{};
  }

 private:
  Histogram hist_;
  Accumulator acc_;
};

/// Labeled per-node metric name: "base{node=7}".  The convention every
/// stack uses for per-sensor series (energy, relayed packets, awake time).
std::string node_metric(std::string_view base, std::uint64_t node);

/// Point-in-time copy of a registry, embeddable in reports.
struct MetricsSnapshot {
  struct GaugeValue {
    double last = 0.0;
    double mean = 0.0;
  };

  struct HistogramValue {
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// NaN observations rejected by the histogram (0 in healthy runs;
    /// exporters only emit it when non-zero).
    std::uint64_t dropped = 0;
  };

  Time at = Time::zero();
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramValue> histograms;

  bool has_counter(const std::string& name) const {
    return counters.count(name) != 0;
  }
  /// 0 for absent names (absent and never-incremented are equivalent).
  std::uint64_t counter(const std::string& name) const;
  double gauge_last(const std::string& name) const;
  /// Zero-filled for absent names.
  HistogramValue histogram(const std::string& name) const;

  /// Per-node series of one base name: every "base{node=N}" counter
  /// (resp. gauge last value), keyed by node id.
  std::map<std::uint64_t, std::uint64_t> labeled_counters(
      std::string_view base) const;
  std::map<std::uint64_t, double> labeled_gauges(std::string_view base) const;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name.  References stay valid for the registry's
  /// lifetime (std::map nodes do not move, and begin_window resets
  /// metrics in place rather than erasing them).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Find-or-create; lo/hi/bins shape the histogram on first use only.
  HistogramMetric& histogram(const std::string& name, double lo = 0.0,
                             double hi = 1.0, std::size_t bins = 32);

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const HistogramMetric* find_histogram(const std::string& name) const;

  /// Zero every counter, restart every gauge window at `now` and forget
  /// every histogram's samples: the registry then covers the measurement
  /// window only (simulations call this when their warmup ends).  Metrics
  /// are reset in place — references handed out earlier stay valid.
  void begin_window(Time now);

  MetricsSnapshot snapshot(Time now) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

}  // namespace mhp
