#include "metrics/registry.hpp"

#include <charconv>

namespace mhp {

void Gauge::set(Time now, double value) {
  if (ever_set_) {
    integral_ += value_ * (now - last_set_).to_seconds();
  } else {
    window_start_ = now;
    ever_set_ = true;
  }
  value_ = value;
  last_set_ = now;
}

double Gauge::mean(Time now) const {
  if (!ever_set_) return 0.0;
  const double width = (now - window_start_).to_seconds();
  if (width <= 0.0) return value_;
  const double tail = value_ * (now - last_set_).to_seconds();
  return (integral_ + tail) / width;
}

void Gauge::restart(Time now) {
  integral_ = 0.0;
  window_start_ = now;
  last_set_ = now;
}

std::string node_metric(std::string_view base, std::uint64_t node) {
  std::string out;
  out.reserve(base.size() + 16);
  out.append(base);
  out.append("{node=");
  out.append(std::to_string(node));
  out.push_back('}');
  return out;
}

namespace {

/// Matches "base{node=N}" and extracts N; nullopt-style via bool return.
bool parse_node_label(const std::string& name, std::string_view base,
                      std::uint64_t& node) {
  if (name.size() <= base.size() || name.compare(0, base.size(), base) != 0)
    return false;
  std::string_view rest(name.c_str() + base.size(),
                        name.size() - base.size());
  constexpr std::string_view kPrefix = "{node=";
  if (rest.size() < kPrefix.size() + 2 ||
      rest.substr(0, kPrefix.size()) != kPrefix || rest.back() != '}')
    return false;
  const char* first = rest.data() + kPrefix.size();
  const char* last = rest.data() + rest.size() - 1;
  const auto [ptr, ec] = std::from_chars(first, last, node);
  return ec == std::errc{} && ptr == last;
}

}  // namespace

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge_last(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second.last;
}

MetricsSnapshot::HistogramValue MetricsSnapshot::histogram(
    const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? HistogramValue{} : it->second;
}

std::map<std::uint64_t, std::uint64_t> MetricsSnapshot::labeled_counters(
    std::string_view base) const {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& [name, value] : counters) {
    std::uint64_t node = 0;
    if (parse_node_label(name, base, node)) out[node] = value;
  }
  return out;
}

std::map<std::uint64_t, double> MetricsSnapshot::labeled_gauges(
    std::string_view base) const {
  std::map<std::uint64_t, double> out;
  for (const auto& [name, value] : gauges) {
    std::uint64_t node = 0;
    if (parse_node_label(name, base, node)) out[node] = value.last;
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            double lo, double hi,
                                            std::size_t bins) {
  return histograms_.try_emplace(name, lo, hi, bins).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const HistogramMetric* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::begin_window(Time now) {
  // Reset in place: erasing nodes would dangle Counter&/HistogramMetric&
  // references agents cached before the warmup ended.
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.restart(now);
  for (auto& [name, h] : histograms_) h.reset();
}

MetricsSnapshot MetricsRegistry::snapshot(Time now) const {
  MetricsSnapshot snap;
  snap.at = now;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_)
    snap.gauges[name] = {g.last(), g.mean(now)};
  for (const auto& [name, h] : histograms_)
    snap.histograms[name] = {h.count(),        h.mean(),
                             h.min(),          h.max(),
                             h.quantile(0.5),  h.quantile(0.95),
                             h.quantile(0.99), h.dropped()};
  return snap;
}

}  // namespace mhp
