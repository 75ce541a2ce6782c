// One node running S-MAC with an AODV routing agent on top.
//
// Mechanisms modelled (Ye/Heidemann/Estrin, INFOCOM 2002):
//  * periodic listen/sleep with a configurable duty cycle; each node keeps
//    one of `schedule_groups` schedule phases (virtual clusters) assigned
//    at start-up, so a neighbour on another phase may sleep while the
//    sender is awake,
//  * a SYNC broadcast every `sync_every_frames` frames: it contends for
//    the medium like any frame, but receivers adopt no schedule from it
//    (phases stay as assigned),
//  * physical carrier sense (energy detect) + random backoff contention,
//  * RTS/CTS/DATA/ACK unicast handshake with retry limit,
//  * virtual carrier sense (NAV) from overheard RTS/CTS and the S-MAC
//    overhearing-avoidance sleep during other nodes' exchanges,
//  * exchanges in progress continue into the sleep period.
//
// Data packets address the sink; AODV supplies next hops, discovering
// routes with RREQ floods and RREP unicasts, re-discovering after MAC
// failures — the control traffic the paper blames for S-MAC+AODV's poor
// throughput (§VI-B).
// The radio's state rule and battery are the node's `RadioTracker`, as in
// the polling agents; this class keeps the MAC and routing logic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "baseline/aodv.hpp"
#include "baseline/smac_config.hpp"
#include "metrics/registry.hpp"
#include "net/packet.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mhp {

/// MAC control payloads.
struct MacCtrl {
  enum Type { kRts, kCts, kAck, kSync } type = kRts;
  Time nav;  // how long the exchange occupies the medium after this frame
};

/// A routed data packet.
struct BaselineData {
  NodeId final_dest = kNoNode;
  NodeId origin = kNoNode;
  std::uint64_t seq = 0;
  Time generated_at;
};

class SmacNode : public ChannelListener {
 public:
  /// `phase`: offset of this node's listen/sleep schedule within the
  /// frame (its virtual cluster's schedule).
  SmacNode(NodeId id, NodeId sink, Simulator& sim, Channel& channel,
           FrameUidSource& uids, const SmacConfig& cfg, Rng rng,
           bool always_on, Time phase = Time::zero());

  /// Begin duty cycling (call once, at t=0).
  void start();

  /// Generate CBR data for the sink at `rate_bytes_per_s`.
  void start_cbr(double rate_bytes_per_s);

  // --- fault injection ---
  /// Kill the node: radio off for good, timers cancelled, every pending
  /// callback becomes a no-op.  Idempotent.  Neighbors recover through
  /// AODV's normal link-failure re-discovery — no extra signalling.
  void fail();
  bool dead() const { return radio_.dead(); }
  /// Finite battery (joules across reset_stats() rebasing); exhaustion
  /// fail()s the node and fires `on_exhausted` once.
  void set_battery(double budget_j, std::function<void()> on_exhausted) {
    radio_.set_battery(budget_j, std::move(on_exhausted));
  }

  // --- ChannelListener ---
  void on_frame_begin(const Frame& frame, NodeId from, double rx_power_w,
                      Time end) override;
  void on_frame_end(const Frame& frame, NodeId from, bool phy_ok) override;

  // --- statistics ---
  std::uint64_t packets_generated() const { return generated_; }
  std::uint64_t packets_delivered() const { return delivered_; }  // at sink
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t packets_dropped() const { return dropped_; }
  std::uint64_t control_frames_sent() const { return control_sent_; }
  std::uint64_t data_frames_sent() const { return data_sent_; }
  std::uint64_t mac_failures() const { return mac_failures_; }
  std::uint64_t rreqs_sent() const { return rreq_sent_; }
  const EnergyMeter& meter() const { return radio_.meter(); }
  void settle(Time now) { radio_.settle(now); }
  void reset_stats(Time now);
  /// Data frames this node forwarded for other origins.
  std::uint64_t packets_relayed() const { return relayed_; }

  /// Registry distributions, mirrored on observation (nullptr = off;
  /// pure observation — never perturbs behaviour).  Latency is observed
  /// at the sink, queue depth whenever a data packet enters the queue.
  void set_latency_histogram(HistogramMetric* h) { latency_hist_ = h; }
  void set_queue_histogram(HistogramMetric* h) { queue_hist_ = h; }

 private:
  // kWaitCtrlAck: a routing unicast (RREP) awaiting its MAC ACK — routing
  // control gets the same link-layer reliability data enjoys.
  enum class Op { kNone, kWaitCts, kWaitData, kWaitAck, kWaitCtrlAck };

  // Duty cycle.
  void on_frame_boundary();
  bool in_listen(Time t) const;
  void radio_sleep_until(Time until);

  // Send pipeline.
  void try_send();
  void contention_step();
  void contention_fire();
  void send_reliable_ctrl();
  void send_rts();
  void send_data_to(NodeId to, const BaselineData& data, bool expects_ack);
  void send_mac(MacCtrl::Type type, NodeId to, Time nav, Time delay);
  void transmit(Frame f, Time delay);
  void mac_success();
  void mac_failure();
  void cancel_timer();
  // Replace the pending MAC timer; `fn` is built once, in the event queue.
  template <typename F>
  void arm_timer(Time delay, F&& fn) {
    cancel_timer();
    timer_ = sim_.after(delay, std::forward<F>(fn));
  }

  // Routing.
  void dispatch_data(BaselineData data);  // route or buffer + discover
  void start_discovery();
  void send_rreq();
  void handle_rreq(const RreqMsg& rreq, NodeId from);
  void handle_rrep(const RrepMsg& rrep, NodeId from);
  void generate_packet();
  bool maybe_die() {
    return radio_.check_battery(sim_.now(), [this] { fail(); });
  }

  NodeId id_;
  NodeId sink_;
  Simulator& sim_;
  Channel& channel_;
  FrameUidSource& uids_;
  const SmacConfig& cfg_;
  Rng rng_;
  bool always_on_;
  Time phase_;
  RadioTracker radio_;
  Time nav_until_;

  // Outgoing queues: broadcasts (RREQ) first, then reliable routing
  // unicasts (RREP), then data.
  std::deque<Frame> ctrl_queue_;
  std::deque<Frame> reliable_queue_;
  std::deque<BaselineData> data_queue_;
  Op op_ = Op::kNone;
  std::optional<NodeId> op_peer_;
  std::optional<BaselineData> op_data_;
  std::optional<Frame> op_frame_;  // in-flight reliable unicast (retries)
  std::uint32_t attempts_ = 0;
  std::uint32_t backoff_remaining_ = 0;  // frozen across busy periods
  bool contending_ = false;
  std::optional<EventId> timer_;
  std::set<std::uint64_t> seen_ctrl_uids_;  // dedupe re-received RREPs

  // Discovery state.
  Aodv aodv_;
  bool discovering_ = false;
  std::uint32_t discovery_tries_ = 0;
  std::optional<EventId> discovery_timer_;

  double rate_bytes_per_s_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t frames_seen_ = 0;

  std::uint64_t generated_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t control_sent_ = 0;
  std::uint64_t data_sent_ = 0;
  std::uint64_t mac_failures_ = 0;
  std::uint64_t rreq_sent_ = 0;
  std::uint64_t relayed_ = 0;
  HistogramMetric* latency_hist_ = nullptr;
  HistogramMetric* queue_hist_ = nullptr;
};

}  // namespace mhp
