#include "radio/channel.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "net/point_grid.hpp"
#include "util/assertx.hpp"

namespace mhp {

ChannelStats& ChannelStats::operator+=(const ChannelStats& o) {
  propagation_calls += o.propagation_calls;
  row_hits += o.row_hits;
  row_misses += o.row_misses;
  row_overflows += o.row_overflows;
  audible_entries += o.audible_entries;
  resident_power_bytes += o.resident_power_bytes;
  return *this;
}

ChannelStats ChannelStats::operator-(const ChannelStats& o) const {
  ChannelStats d = *this;
  d.propagation_calls -= o.propagation_calls;
  d.row_hits -= o.row_hits;
  d.row_misses -= o.row_misses;
  d.row_overflows -= o.row_overflows;
  return d;
}

Channel::Channel(Simulator& sim, const Propagation& prop, RadioParams params,
                 std::vector<Vec2> positions, std::vector<double> tx_power_w,
                 std::size_t row_cache_bytes)
    : sim_(sim),
      prop_(prop),
      params_(params),
      positions_(std::move(positions)),
      tx_power_(std::move(tx_power_w)) {
  MHP_REQUIRE(positions_.size() == tx_power_.size(),
              "positions/tx power size mismatch");
  MHP_REQUIRE(!positions_.empty(), "channel needs at least one node");
  MHP_REQUIRE(params_.bandwidth_bps > 0.0, "bandwidth must be positive");
  const std::size_t n = positions_.size();
  listeners_.assign(n, nullptr);
  field_.assign(n, 0.0);
  row_capacity_ =
      std::clamp<std::size_t>(row_cache_bytes / (n * sizeof(double)), 1, n);
  kept_.assign(n, nullptr);
  build_audible();
}

void Channel::build_audible() {
  const std::size_t n = num_nodes();
  const double sensitivity = params_.sensitivity_w;
  struct Heard {
    NodeId from, to;
    double power;
  };
  std::vector<Heard> heard;
  const auto keep = [&](NodeId from, NodeId to, double power) {
    if (power >= sensitivity) heard.push_back({from, to, power});
  };
  std::vector<double> reach(n);
  bool bounded = true;
  for (NodeId a = 0; a < n; ++a) {
    reach[a] = prop_.range_bound_m(tx_power_[a], sensitivity);
    bounded = bounded && std::isfinite(reach[a]);
  }
  if (bounded) {
    // Each sender tests only the grid candidates within its reach (a
    // squared-distance screen: the bound's slack dwarfs its rounding), in
    // ascending receiver order.
    const PointGrid grid(positions_,
                         *std::min_element(reach.begin(), reach.end()));
    std::vector<NodeId> near;
    for (NodeId a = 0; a < n; ++a) {
      const Vec2 pa = positions_[a];
      const double r2 = reach[a] * reach[a];
      near.clear();
      grid.for_each_near(pa, reach[a], [&](NodeId b) {
        const Vec2 d = positions_[b] - pa;
        if (b != a && d.x * d.x + d.y * d.y <= r2) near.push_back(b);
      });
      std::sort(near.begin(), near.end());
      for (const NodeId b : near) keep(a, b, model_power(a, b));
    }
  } else {
    // Reciprocal models (propagation.hpp): one call per unordered pair
    // serves both directions when the two powers are equal.
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = a + 1; b < n; ++b) {
        const double ab = model_power(a, b);
        keep(a, b, ab);
        keep(b, a, tx_power_[a] == tx_power_[b] ? ab : model_power(b, a));
      }
  }
  // CSR by a stable counting sort on the sender.  Both scans emit each
  // sender's receivers in ascending order, so every list ascends.
  audible_begin_.assign(n + 1, 0);
  for (const Heard& h : heard) ++audible_begin_[h.from + 1];
  for (std::size_t a = 1; a <= n; ++a)
    audible_begin_[a] += audible_begin_[a - 1];
  audible_.resize(heard.size());
  audible_power_.resize(heard.size());
  std::vector<std::size_t> cursor(audible_begin_.begin(),
                                  audible_begin_.end() - 1);
  for (const Heard& h : heard) {
    const std::size_t at = cursor[h.from]++;
    audible_[at] = h.to;
    audible_power_[at] = h.power;
  }
}

double Channel::model_power(NodeId from, NodeId to) const {
  ++propagation_calls_;
  return prop_.rx_power_w(tx_power_[from], positions_[from], positions_[to]);
}

const double* Channel::row(NodeId from, std::unique_ptr<double[]>& own) {
  if (kept_[from] != nullptr) {
    ++row_hits_;
    return kept_[from];
  }
  ++row_misses_;
  double* power;
  if (kept_rows_ < row_capacity_) {
    if (free_row_count_ == 0) {
      free_row_count_ =
          std::clamp<std::size_t>(kept_rows_, 1, row_capacity_ - kept_rows_);
      row_blocks_.push_back(std::make_unique_for_overwrite<double[]>(
          free_row_count_ * num_nodes()));
      free_rows_ = row_blocks_.back().get();
    }
    power = kept_[from] = free_rows_;
    free_rows_ += num_nodes();
    --free_row_count_;
    ++kept_rows_;
  } else {
    ++row_overflows_;
    own = std::make_unique_for_overwrite<double[]>(num_nodes());
    power = own.get();
  }
  for (NodeId r = 0; r < num_nodes(); ++r)
    power[r] = r == from ? 0.0 : model_power(from, r);
  return power;
}

ChannelStats Channel::stats() const {
  ChannelStats s;
  s.propagation_calls = propagation_calls_;
  s.row_hits = row_hits_;
  s.row_misses = row_misses_;
  s.row_overflows = row_overflows_;
  s.audible_entries = audible_.size();
  const auto own_rows = std::count_if(
      active_.begin(), active_.end(),
      [](const ActiveTx& t) { return t.own_row != nullptr; });
  s.resident_power_bytes =
      audible_.size() * (sizeof(NodeId) + sizeof(double)) +
      (kept_rows_ + static_cast<std::size_t>(own_rows)) * num_nodes() *
          sizeof(double);
  return s;
}

void Channel::set_listener(NodeId node, ChannelListener* listener) {
  MHP_REQUIRE(node < num_nodes(), "node out of range");
  listeners_[node] = listener;
}

Time Channel::airtime(std::uint32_t bytes) const {
  const double seconds = static_cast<double>(bytes) * 8.0 /
                         params_.bandwidth_bps;
  return Time::seconds(seconds);
}

double Channel::rx_power_w(NodeId from, NodeId to) const {
  MHP_REQUIRE(from < num_nodes() && to < num_nodes(), "node out of range");
  if (kept_[from] != nullptr) return kept_[from][to];
  return from == to ? 0.0 : model_power(from, to);
}

std::optional<double> Channel::audible_power_w(NodeId from,
                                               NodeId to) const {
  MHP_REQUIRE(to < num_nodes(), "node out of range");
  const auto heard = audible(from);
  const auto it = std::lower_bound(heard.begin(), heard.end(), to);
  if (it == heard.end() || *it != to) return std::nullopt;
  return audible_power_[audible_begin_[from] +
                        static_cast<std::size_t>(it - heard.begin())];
}

bool Channel::link_ok(NodeId from, NodeId to) const {
  // Only audible receivers clear the sensitivity; the rest fail it.
  const std::optional<double> p = audible_power_w(from, to);
  return p && *p / params_.noise_w >= params_.sinr_threshold;
}

std::span<const NodeId> Channel::audible(NodeId from) const {
  MHP_REQUIRE(from < num_nodes(), "node out of range");
  return std::span<const NodeId>(audible_).subspan(
      audible_begin_[from], audible_begin_[from + 1] - audible_begin_[from]);
}

double Channel::sensed_power_w(NodeId at) const {
  MHP_REQUIRE(at < num_nodes(), "node out of range");
  return params_.noise_w + field_[at];
}

bool Channel::carrier_sensed(NodeId at) const {
  MHP_REQUIRE(at < num_nodes(), "node out of range");
  return field_[at] >= params_.cs_threshold_w;
}

void Channel::refresh_max_other() {
  // After any change to the active set, update every active transmission's
  // worst-case interference snapshot at the receivers that can decode it.
  for (auto& tx : active_) {
    const auto heard = audible(tx.from);
    for (std::size_t i = 0; i < heard.size(); ++i) {
      const NodeId r = heard[i];
      tx.max_other[i] = std::max(tx.max_other[i], field_[r] - tx.power_at[r]);
    }
  }
}

void Channel::transmit(NodeId from, Frame frame) {
  MHP_REQUIRE(from < num_nodes(), "sender out of range");
  MHP_REQUIRE(frame.size_bytes > 0, "empty frame");
  for (const auto& tx : active_)
    MHP_REQUIRE(tx.from != from, "node already transmitting (half-duplex)");

  ++frames_tx_;
  const Time start = sim_.now();
  const Time end = start + airtime(frame.size_bytes);
  if (tracing(trace_, TraceCat::kChannel))
    trace_->record(start, TraceCat::kChannel, "tx " + frame.describe());

  const auto heard = audible(from);
  ActiveTx tx{frame, from, nullptr, nullptr,
              std::vector<double>(heard.size(), 0.0)};
  tx.power_at = row(from, tx.own_row);
  for (std::size_t r = 0; r < num_nodes(); ++r) field_[r] += tx.power_at[r];

  // Frame-begin notifications to nodes that can hear it.
  for (const NodeId r : heard)
    if (listeners_[r] != nullptr)
      listeners_[r]->on_frame_begin(frame, from, tx.power_at[r], end);

  const std::uint64_t uid = frame.uid;
  active_.push_back(std::move(tx));
  refresh_max_other();

  sim_.at(end, [this, uid] { finish(uid); });
}

void Channel::finish(std::uint64_t uid) {
  auto it = std::find_if(active_.begin(), active_.end(), [&](const ActiveTx& t) {
    return t.frame.uid == uid;
  });
  MHP_ENSURE(it != active_.end(), "finishing unknown transmission");
  ActiveTx tx = std::move(*it);
  active_.erase(it);
  for (std::size_t r = 0; r < num_nodes(); ++r) {
    field_[r] -= tx.power_at[r];
    // Keep the field non-negative under floating-point cancellation.
    if (field_[r] < 0.0) field_[r] = 0.0;
  }

  const auto heard = audible(tx.from);
  for (std::size_t i = 0; i < heard.size(); ++i) {
    const NodeId r = heard[i];
    if (listeners_[r] == nullptr) continue;
    const double sinr =
        tx.power_at[r] / (params_.noise_w + tx.max_other[i]);
    const bool phy_ok = sinr >= params_.sinr_threshold;
    if (!phy_ok && tracing(trace_, TraceCat::kChannel) &&
        (tx.frame.dst == kBroadcast || tx.frame.dst == r))
      trace_->record(sim_.now(), TraceCat::kChannel,
                     "sinr fail at " + std::to_string(r) + ": " +
                         tx.frame.describe());
    listeners_[r]->on_frame_end(tx.frame, tx.from, phy_ok);
  }
}

std::vector<bool> Channel::concurrent_outcome(
    const std::vector<TxRx>& txs) const {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    MHP_REQUIRE(txs[i].sender < num_nodes() && txs[i].receiver < num_nodes(),
                "node out of range");
    MHP_REQUIRE(txs[i].sender != txs[i].receiver, "self transmission");
    for (std::size_t j = i + 1; j < txs.size(); ++j)
      MHP_REQUIRE(txs[i].sender != txs[j].sender, "duplicate sender");
  }
  std::vector<bool> ok(txs.size(), false);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const NodeId s = txs[i].sender;
    const NodeId r = txs[i].receiver;
    // Half-duplex: a receiver that is also sending cannot decode.
    bool rx_is_sender = false;
    for (const auto& t : txs)
      if (t.sender == r) rx_is_sender = true;
    if (rx_is_sender) continue;
    // Only an audible receiver clears the sensitivity.
    const std::optional<double> heard = audible_power_w(s, r);
    if (!heard) continue;
    const double signal = *heard;
    double interference = 0.0;
    for (std::size_t j = 0; j < txs.size(); ++j)
      if (j != i) interference += rx_power_w(txs[j].sender, r);
    ok[i] = signal / (params_.noise_w + interference) >=
            params_.sinr_threshold;
  }
  return ok;
}

ClusterTopology link_topology(const Channel& channel, std::size_t n,
                              NodeId base) {
  MHP_REQUIRE(base + n < channel.num_nodes(), "cluster outside the channel");
  const auto head = static_cast<NodeId>(base + n);
  Graph g(n);
  std::vector<bool> head_hears(n);
  for (NodeId a = 0; a < n; ++a) {
    const NodeId from = base + a;
    // Ascending, so the pairs (a, b > a) come in the predicate scan's order.
    for (const NodeId r : channel.audible(from)) {
      if (r <= from) continue;
      if (r >= head) break;
      if (channel.link_ok(from, r) && channel.link_ok(r, from))
        g.add_edge(a, r - base);
    }
    head_hears[a] = channel.link_ok(from, head);
  }
  return ClusterTopology(std::move(g), std::move(head_hears));
}

}  // namespace mhp
