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
//  * a slot-level reference (`concurrent_outcome`): the ground truth
//    that the ChannelOracle differential tests and micro_sim compare
//    against.  Probing (§V-E) goes through ChannelOracle, and the
//    schedule validator takes any CompatibilityOracle.
//
// Cost of a frame, and memory.  SINR sums every concurrent transmission,
// however weak, so a frame adds its sender's whole power row to a dense
// carrier-sense field and subtracts it at the end.  What a frame can
// *change* is narrower: only a receiver whose power is at or above the
// sensitivity can be notified or decode it.  No n×n matrix is kept:
//  * each sender's such receivers, ids and powers, are listed once at
//    construction (`audible`, CSR, O(n·degree)), found through a uniform
//    grid sized by Propagation::range_bound_m; a model without a finite
//    bound is scanned one propagation call per unordered pair;
//  * a sender's full row is computed on its first frame and kept for the
//    channel's lifetime while the rows kept fit in kRowCacheBytes (every
//    row of a channel of up to 2048 nodes).  Once the budget is full, a
//    new sender's row is computed afresh for each of its frames and freed
//    when that frame ends.  A kept row never moves or changes, and a
//    fresh row belongs to its frame, so no frame's row changes under it.
// A frame costs O(n) plain adds and subtracts on the field (plus O(n)
// propagation calls when its row is not kept) and O(audible · frames in
// flight) for the SINR bookkeeping.  Every outcome is bit-identical to a
// dense matrix filled at construction, because the propagation models are
// bitwise reciprocal and rows are pure functions of the positions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// Callbacks must not call Channel::transmit synchronously: a frame joins
/// the set in flight only after its begin callbacks, so a transmit nested
/// in one is not checked against it (half-duplex included).  Agents defer
/// their reactions through the simulator.
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

/// Work and memory counters of a Channel (or, summed, of several).
struct ChannelStats {
  std::uint64_t propagation_calls = 0;  // Propagation::rx_power_w calls
  std::uint64_t row_hits = 0;       // frames whose sender row was kept
  std::uint64_t row_misses = 0;     // frames that computed their row
  std::uint64_t row_overflows = 0;  // misses whose row the full budget
                                    // could not keep
  std::uint64_t audible_entries = 0;
  /// Bytes of stored powers and receiver ids: audible lists, kept rows
  /// and the rows of frames in flight.
  std::uint64_t resident_power_bytes = 0;

  ChannelStats& operator+=(const ChannelStats& o);
  /// Counter-wise difference (resident bytes and audible entries are
  /// levels, so they keep this side's value).
  ChannelStats operator-(const ChannelStats& o) const;
};

class Channel {
 public:
  /// Byte budget of the kept sender rows: every row of a channel of up
  /// to 2048 nodes (a field channel has about 300), 419 rows at 10001.
  static constexpr std::size_t kRowCacheBytes = std::size_t{32} << 20;

  /// One entry per node in `positions`/`tx_power_w` (sensors 0..n-1, head
  /// n).  `prop` must outlive the channel.  `row_cache_bytes` exists for
  /// tests that fill the budget; at least one row is always kept.
  Channel(Simulator& sim, const Propagation& prop, RadioParams params,
          std::vector<Vec2> positions, std::vector<double> tx_power_w,
          std::size_t row_cache_bytes = kRowCacheBytes);
  // Frames in flight point into the kept rows and into rows they own;
  // a copy's frames would point into the original's.
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

  /// Received power for a transmission from→to at from's tx power (0 on
  /// the diagonal): a kept row's entry, else one propagation call.
  double rx_power_w(NodeId from, NodeId to) const;

  /// rx_power_w(from, to), bit for bit, when `to` is in audible(from);
  /// nullopt for any other receiver, which fails the sensitivity test.
  /// A binary search of the audible list; never calls the model.
  std::optional<double> audible_power_w(NodeId from, NodeId to) const;

  /// Interference-free link viability: sensitivity + SNR threshold.  Reads
  /// the audible list; never calls the propagation model.
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

  ChannelStats stats() const;

 private:
  struct ActiveTx {
    Frame frame;
    NodeId from;
    const double* power_at;  // `from`'s row (diagonal 0): kept or own_row
    std::unique_ptr<double[]> own_row;  // when the budget was full
    // Max concurrent interference at each audible(from)[i].
    std::vector<double> max_other;
  };

  void build_audible();
  /// `from`'s full row: kept, or computed and kept while the budget has
  /// room, or else computed into `own`.
  const double* row(NodeId from, std::unique_ptr<double[]>& own);
  double model_power(NodeId from, NodeId to) const;
  void finish(std::uint64_t uid);
  void refresh_max_other();

  Simulator& sim_;
  const Propagation& prop_;
  RadioParams params_;
  std::vector<Vec2> positions_;
  std::vector<double> tx_power_;
  // audible(a) is audible_[audible_begin_[a] .. audible_begin_[a + 1]),
  // with the matching powers at the same indices of audible_power_.
  std::vector<std::size_t> audible_begin_;
  std::vector<NodeId> audible_;
  std::vector<double> audible_power_;
  std::size_t row_capacity_;  // rows the budget holds
  // Kept rows are carved from blocks that double the rows held (capped at
  // the budget), so few allocations serve many rows and none ever moves.
  std::vector<std::unique_ptr<double[]>> row_blocks_;
  double* free_rows_ = nullptr;  // unused rows at the end of the last block
  std::size_t free_row_count_ = 0;
  std::size_t kept_rows_ = 0;
  // kept_[a][r] = rx_power_w(a, r) once a's row is kept; null before.
  std::vector<double*> kept_;
  mutable std::uint64_t propagation_calls_ = 0;
  std::uint64_t row_hits_ = 0, row_misses_ = 0, row_overflows_ = 0;
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
