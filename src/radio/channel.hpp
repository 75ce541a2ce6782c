// The wireless channel: ground truth for who hears what.
//
// Reception requires (a) received power above the radio sensitivity and
// (b) SINR above the capture threshold for the *whole* frame, where the
// interference term accumulates power from every concurrent transmission.
// Accumulation is the point: three transmissions can be pairwise compatible
// yet jointly fail (the paper's Fig. 3 argument against the protocol
// model), and this channel reproduces that.
//
// Two interfaces are exposed:
//  * an event-driven one (`transmit` + ChannelListener) used by the
//    protocol agents and the S-MAC baseline, and
//  * a slot-level oracle (`concurrent_outcome`) used for interference
//    probing (§V-E) and by the schedule validator.
//
// Cost of a frame.  The received-power matrix stays dense: SINR sums every
// concurrent transmission, however weak.  What a frame can *change* is
// narrower: only a receiver whose power is at or above the sensitivity can
// be notified or decode it.  Each sender's such receivers are listed once
// at construction (`audible`), so a frame costs O(n) plain adds and
// subtracts on the carrier-sense field plus O(audible · frames in flight)
// for the SINR bookkeeping, with every outcome bit-identical to walking
// all n nodes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "net/packet.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/geometry.hpp"

namespace mhp {

struct RadioParams {
  double bandwidth_bps = 200'000.0;    // the paper's 200 kbps radio
  double noise_w = 1e-11;              // noise floor
  double sinr_threshold = 10.0;        // linear capture threshold (10 dB)
  double sensitivity_w = 3.65e-10;     // minimum decodable power (NS-2-like)
  double cs_threshold_w = 3.65e-11;    // carrier-sense energy detect

  /// Default transmit powers: 2 mW sensors (≈60 m two-ray range at the
  /// sensitivity above), 0.5 W cluster head (covers the whole cluster).
  static constexpr double kSensorTxPowerW = 2e-3;
  static constexpr double kHeadTxPowerW = 0.5;
};

class ChannelListener {
 public:
  virtual ~ChannelListener() = default;

  /// A frame whose power at this node exceeds sensitivity started.
  virtual void on_frame_begin(const Frame& frame, NodeId from,
                              double rx_power_w, Time end) {
    (void)frame, (void)from, (void)rx_power_w, (void)end;
  }

  /// The same frame ended. `phy_ok` — SINR stayed above threshold
  /// throughout; the MAC still decides whether it was actually listening.
  virtual void on_frame_end(const Frame& frame, NodeId from, bool phy_ok) = 0;
};

class Channel {
 public:
  /// One entry per node in `positions`/`tx_power_w` (sensors 0..n-1, head n).
  Channel(Simulator& sim, const Propagation& prop, RadioParams params,
          std::vector<Vec2> positions, std::vector<double> tx_power_w);
  // Frames in flight point into the power matrix.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Record kChannel entries (transmissions, SINR failures) into `trace`.
  void set_trace(Trace* trace) { trace_ = trace; }

  std::size_t num_nodes() const { return positions_.size(); }
  const RadioParams& params() const { return params_; }
  Simulator& sim() { return sim_; }

  void set_listener(NodeId node, ChannelListener* listener);

  /// Frame airtime at the channel bandwidth.
  Time airtime(std::uint32_t bytes) const;

  /// Cached received power for a transmission from→to at from's tx power.
  double rx_power_w(NodeId from, NodeId to) const;

  /// Interference-free link viability: sensitivity + SNR threshold.
  bool link_ok(NodeId from, NodeId to) const;

  /// The receivers r ≠ from with rx_power_w(from, r) ≥ sensitivity, in
  /// ascending order: every node a frame from `from` can reach.
  std::span<const NodeId> audible(NodeId from) const;

  /// Total power observed at `at` right now (noise + active transmissions).
  double sensed_power_w(NodeId at) const;

  /// True if the energy detector at `at` sees a busy channel.
  bool carrier_sensed(NodeId at) const;

  /// Start transmitting `frame` from `from`; the end event and all
  /// deliveries are scheduled on the simulator.
  void transmit(NodeId from, Frame frame);

  struct TxRx {
    NodeId sender;
    NodeId receiver;
  };
  /// Ground-truth outcome if all transmissions run in the same slot:
  /// outcome[i] is true iff receiver i decodes sender i under the summed
  /// interference of the others.  Receivers that are themselves senders in
  /// the set fail (half-duplex).  Senders must be distinct.
  std::vector<bool> concurrent_outcome(const std::vector<TxRx>& txs) const;

  std::uint64_t frames_transmitted() const { return frames_tx_; }

 private:
  struct ActiveTx {
    Frame frame;
    NodeId from;
    const double* power_at;  // row `from` of rx_matrix_ (diagonal 0)
    // Max concurrent interference at each audible(from)[i].
    std::vector<double> max_other;
  };

  void finish(std::uint64_t uid);
  void refresh_max_other();

  Simulator& sim_;
  RadioParams params_;
  std::vector<Vec2> positions_;
  std::vector<double> tx_power_;
  std::vector<double> rx_matrix_;  // n² cached powers, row-major
  // audible(a) is audible_[audible_begin_[a] .. audible_begin_[a + 1]).
  std::vector<std::size_t> audible_begin_;
  std::vector<NodeId> audible_;
  std::vector<ChannelListener*> listeners_;
  std::vector<ActiveTx> active_;
  std::vector<double> field_;  // sum of active powers per node
  std::uint64_t frames_tx_ = 0;
  Trace* trace_ = nullptr;
};

/// The interference-free topology of the cluster whose n sensors are
/// channel nodes base..base+n-1 and whose head is base+n: the result of
/// topology_from_predicate(n, link_ok(base + a, base + b)), edge order
/// included, found by testing only audible candidates.
ClusterTopology link_topology(const Channel& channel, std::size_t n,
                              NodeId base = 0);

}  // namespace mhp
