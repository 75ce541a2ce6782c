#include "radio/channel.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/assertx.hpp"

namespace mhp {

Channel::Channel(Simulator& sim, const Propagation& prop, RadioParams params,
                 std::vector<Vec2> positions, std::vector<double> tx_power_w)
    : sim_(sim),
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
  rx_matrix_.assign(n * n, 0.0);
  // Propagation models are reciprocal (propagation.hpp), so one call per
  // unordered pair fills both directions when the two powers are equal.
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      const double ab =
          prop.rx_power_w(tx_power_[a], positions_[a], positions_[b]);
      rx_matrix_[a * n + b] = ab;
      rx_matrix_[b * n + a] =
          tx_power_[a] == tx_power_[b]
              ? ab
              : prop.rx_power_w(tx_power_[b], positions_[b], positions_[a]);
    }
  audible_begin_.reserve(n + 1);
  audible_begin_.push_back(0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t r = 0; r < n; ++r)
      if (r != a && rx_matrix_[a * n + r] >= params_.sensitivity_w)
        audible_.push_back(static_cast<NodeId>(r));
    audible_begin_.push_back(audible_.size());
  }
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
  return rx_matrix_[from * num_nodes() + to];
}

bool Channel::link_ok(NodeId from, NodeId to) const {
  if (from == to) return false;
  const double p = rx_power_w(from, to);
  return p >= params_.sensitivity_w &&
         p / params_.noise_w >= params_.sinr_threshold;
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
  ActiveTx tx{frame, from, &rx_matrix_[from * num_nodes()],
              std::vector<double>(heard.size(), 0.0)};
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
    const double signal = rx_power_w(s, r);
    if (signal < params_.sensitivity_w) continue;
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
