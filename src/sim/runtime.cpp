#include "sim/runtime.hpp"

#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

void DeliveryLedger::on_death(std::uint64_t generated,
                              std::uint64_t delivered) {
  if (have_first_death) return;
  have_first_death = true;
  death_generated = generated;
  death_delivered = delivered;
  on_repair(generated, delivered);
}

SimRuntime::SimRuntime(std::uint64_t seed, const RuntimeOptions& opts)
    : root_rng_(seed), wall_begin_(std::chrono::steady_clock::now()) {
  trace_.set_max_entries(opts.trace_max_entries);
  if (opts.samples_stream != nullptr) {
    MetricsSampler& sp = install_sampler(
        {.period = opts.sample_period, .out = opts.samples_stream});
    // Standard contract names; stacks whose live state is not mirrored
    // into the registry push it via refresh hooks (see sample::).
    sp.watch_counter(metric::kPacketsGenerated);
    sp.watch_counter(metric::kPacketsDelivered);
    sp.watch_gauge(sample::kAliveNodes);
    sp.watch_gauge(sample::kEnergyJ);
    sp.watch_gauge(sample::kDelivered);
    sp.watch_gauge(sample::kGenerated);
    sp.start();
  }
}

Propagation& SimRuntime::adopt_propagation(
    std::unique_ptr<Propagation> propagation) {
  MHP_REQUIRE(propagation != nullptr, "null propagation model");
  MHP_REQUIRE(propagation_ == nullptr,
              "runtime already has a propagation model");
  propagation_ = std::move(propagation);
  return *propagation_;
}

const Propagation& SimRuntime::propagation() const {
  MHP_REQUIRE(propagation_ != nullptr, "no propagation model adopted");
  return *propagation_;
}

FaultInjector& SimRuntime::install_faults(const FaultPlan& plan) {
  MHP_REQUIRE(faults_ == nullptr, "runtime already has a fault injector");
  faults_ = std::make_unique<FaultInjector>(sim_, plan, &trace_);
  return *faults_;
}

MetricsSampler& SimRuntime::install_sampler(
    const MetricsSampler::Options& opts) {
  MHP_REQUIRE(sampler_ == nullptr, "runtime already has a sampler");
  sampler_ = std::make_unique<MetricsSampler>(sim_, metrics_, opts);
  return *sampler_;
}

Channel& SimRuntime::add_channel(RadioParams params,
                                 std::vector<Vec2> positions,
                                 std::vector<double> tx_power_w) {
  MHP_REQUIRE(propagation_ != nullptr,
              "adopt_propagation() before add_channel()");
  channels_.push_back(std::make_unique<Channel>(sim_, *propagation_, params,
                                                std::move(positions),
                                                std::move(tx_power_w)));
  channels_.back()->set_trace(&trace_);
  return *channels_.back();
}

ChannelStats SimRuntime::channel_stats() const {
  ChannelStats total;
  for (const auto& ch : channels_) total += ch->stats();
  return total;
}

void span_channel_counters(const ChannelStats& stats) {
  MHP_SPAN_COUNTER("propagation_calls", stats.propagation_calls);
  MHP_SPAN_COUNTER("row_hits", stats.row_hits);
  MHP_SPAN_COUNTER("row_misses", stats.row_misses);
  MHP_SPAN_COUNTER("row_overflows", stats.row_overflows);
  MHP_SPAN_COUNTER("audible_entries", stats.audible_entries);
}

void SimRuntime::begin_measurement() {
  metrics_.begin_window(sim_.now());
  frames_at_window_begin_ = 0;
  for (const auto& ch : channels_)
    frames_at_window_begin_ += ch->frames_transmitted();
  wall_begin_ = std::chrono::steady_clock::now();
  events_at_window_begin_ = sim_.events_executed();
}

RunStats SimRuntime::collect_run_stats(Time measured,
                                       std::uint32_t data_bytes) {
  std::uint64_t frames = 0;
  for (const auto& ch : channels_) frames += ch->frames_transmitted();
  frames -= frames_at_window_begin_;
  Counter& frames_counter = metrics_.counter(metric::kChannelFramesTx);
  frames_counter.add(frames - frames_counter.value());

  RunStats out;
  out.measured_seconds = measured.to_seconds();
  out.packets_generated =
      metrics_.counter(metric::kPacketsGenerated).value();
  out.packets_delivered =
      metrics_.counter(metric::kPacketsDelivered).value();
  const std::uint64_t bytes =
      metrics_.counter(metric::kBytesDelivered).value();
  out.offered_bps =
      static_cast<double>(out.packets_generated * data_bytes) /
      out.measured_seconds;
  out.throughput_bps = static_cast<double>(bytes) / out.measured_seconds;
  out.delivery_ratio =
      out.packets_generated == 0
          ? 1.0
          : static_cast<double>(out.packets_delivered) /
                static_cast<double>(out.packets_generated);
  out.mean_active_fraction =
      metrics_.gauge(metric::kMeanActiveFraction).last();
  out.mean_latency_s = metrics_.gauge(metric::kMeanLatencyS).last();
  if (const HistogramMetric* h = metrics_.find_histogram(metric::kLatencyHistS);
      h != nullptr && h->count() > 0) {
    out.latency_p50_s = h->quantile(0.50);
    out.latency_p95_s = h->quantile(0.95);
    out.latency_p99_s = h->quantile(0.99);
  }
  if (const HistogramMetric* h = metrics_.find_histogram(metric::kQueueDepth);
      h != nullptr && h->count() > 0) {
    out.queue_depth_p50 = h->quantile(0.50);
    out.queue_depth_p95 = h->quantile(0.95);
    out.queue_depth_p99 = h->quantile(0.99);
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin_)
          .count();
  out.events_processed = sim_.events_executed() - events_at_window_begin_;
  out.events_per_sec =
      out.wall_seconds > 0.0
          ? static_cast<double>(out.events_processed) / out.wall_seconds
          : 0.0;
  out.metrics = metrics_.snapshot(sim_.now());
  return out;
}

void SimRuntime::export_node(std::uint64_t id, const EnergyMeter& meter,
                             std::uint64_t relayed,
                             std::uint64_t frames_tx) {
  const Time now = sim_.now();
  metrics_.counter(node_metric(metric::kNodeRelayed, id)).add(relayed);
  metrics_.counter(node_metric(metric::kNodeFramesTx, id)).add(frames_tx);
  metrics_.gauge(node_metric(metric::kNodeEnergyJ, id))
      .set(now, meter.total_energy_j());
  metrics_.gauge(node_metric(metric::kNodeAwakeS, id))
      .set(now,
           (meter.total_time() - meter.time_in(RadioState::kSleep))
               .to_seconds());
}

DegradationReport SimRuntime::collect_degradation(
    DegradationReport deg, const DeliveryLedger& ledger,
    std::uint64_t generated, std::uint64_t delivered) {
  const auto sat = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : std::uint64_t{0};
  };
  const auto ratio = [](std::uint64_t del, std::uint64_t gen) {
    return gen == 0 ? 1.0
                    : static_cast<double>(del) / static_cast<double>(gen);
  };
  if (faults_ != nullptr) {
    deg.dead_nodes = faults_->dead_nodes();
    deg.deaths = deg.dead_nodes.size();
  }
  if (ledger.have_first_death) {
    deg.delivery_before =
        ratio(ledger.death_delivered, ledger.death_generated);
    deg.delivery_after = ratio(sat(delivered, ledger.repair_delivered),
                               sat(generated, ledger.repair_generated));
  } else {
    deg.delivery_before = ratio(delivered, generated);
    deg.delivery_after = deg.delivery_before;
  }
  metrics_.counter("fault.deaths").add(deg.deaths);
  metrics_.counter("fault.deaths_detected").add(deg.deaths_detected);
  metrics_.counter("fault.replans").add(deg.replans);
  metrics_.counter("fault.orphaned_sensors").add(deg.orphaned_sensors);
  return deg;
}

}  // namespace mhp
