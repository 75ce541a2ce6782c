// The basic sensor node's protocol logic (§II).
//
// Sensors are deliberately dumb: they sample data on their own schedule,
// sleep whenever told to, and transmit only when a polling message names
// them.  All coordination lives in the cluster head.  The radio's state
// rule and battery are the agent's `RadioTracker`.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "core/protocol_config.hpp"
#include "fault/fault_injector.hpp"
#include "core/protocol_messages.hpp"
#include "metrics/registry.hpp"
#include "net/packet.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mhp {

class SensorAgent : public ChannelListener {
 public:
  SensorAgent(NodeId id, Simulator& sim, Channel& channel,
              FrameUidSource& uids, const ProtocolConfig& cfg, Rng rng);

  /// Start periodic data generation at `rate_bytes_per_s` (0 = no data).
  void start_sampling(double rate_bytes_per_s);

  /// Which sector this sensor belongs to (0 when sectoring is off); the
  /// head assigns it during cluster set-up and the sensor filters
  /// wake/sleep messages by it.
  void set_sector(int sector) { sector_ = sector; }

  /// Accept control messages only from this cluster head (needed when
  /// several clusters share a radio channel, §V-G).  kNoNode = any.
  void set_head(NodeId head) { head_ = head; }

  /// Queue length the sensor would report in an ack right now.
  std::uint32_t backlog() const;

  // --- fault injection ---
  /// Kill the node: radio off for good, every pending callback becomes a
  /// no-op.  Idempotent.  The head only learns of it from unanswered
  /// polls — there is no out-of-band death notification.
  void fail() { radio_.kill(sim_.now()); }
  bool dead() const { return radio_.dead(); }
  /// Give the node a finite battery; once its total consumed energy
  /// (across reset_stats() rebasing) reaches `budget_j` it fail()s and
  /// `on_exhausted` fires once.
  void set_battery(double budget_j, std::function<void()> on_exhausted) {
    radio_.set_battery(budget_j, std::move(on_exhausted));
  }
  /// Consult `f`'s link-degradation windows on frame reception
  /// (nullptr = off).  Draws from this agent's rng only while a matching
  /// window is active, so an empty plan perturbs nothing.
  void set_fault_injector(const FaultInjector* f) { faults_ = f; }

  // --- ChannelListener ---
  void on_frame_begin(const Frame& frame, NodeId from, double rx_power_w,
                      Time end) override;
  void on_frame_end(const Frame& frame, NodeId from, bool phy_ok) override;

  // --- accounting ---
  const EnergyMeter& meter() const { return radio_.meter(); }
  /// Settle the radio at `now` (call before reading the meter).
  void settle(Time now) { radio_.settle(now); }
  /// Zero counters and energy after a warm-up period.
  void reset_stats(Time now);

  std::uint64_t packets_generated() const { return generated_; }
  std::uint64_t packets_dropped_overflow() const { return dropped_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  /// Data frames this sensor forwarded on behalf of other origins.
  std::uint64_t packets_relayed() const { return relayed_; }

  /// Observe each post-sample queue depth into `h` (nullptr = off).  Safe
  /// across begin_window: the registry resets metrics in place, so the
  /// pointer stays valid.  Pure observation — never perturbs behaviour.
  void set_queue_histogram(HistogramMetric* h) { queue_hist_ = h; }

 private:
  void handle_control(const ControlPayload& ctrl);
  void handle_poll(const PollMsg& poll);
  void transmit_data(const PollAssignment& a);
  void transmit_ack(const PollAssignment& a);
  void go_to_sleep(const SleepMsg& sleep);
  void wake_up();
  void generate_packet();
  void send_frame(FrameKind kind, NodeId dst, std::uint32_t bytes,
                  std::any payload);
  /// Settle energy and fail() if the battery budget is spent.  Returns
  /// true when the node (just) died.
  bool maybe_die() {
    return radio_.check_battery(sim_.now(), [this] { fail(); });
  }

  NodeId id_;
  Simulator& sim_;
  Channel& channel_;
  FrameUidSource& uids_;
  const ProtocolConfig& cfg_;
  Rng rng_;

  RadioTracker radio_;
  const FaultInjector* faults_ = nullptr;

  std::deque<DataPayload> queue_;              // sampled, not yet polled
  std::map<std::uint32_t, DataPayload> in_flight_;  // polled this cycle
  std::map<std::uint32_t, DataPayload> relay_data_;
  std::map<std::uint32_t, AckPayload> relay_ack_;
  std::uint64_t seq_ = 0;

  double rate_bytes_per_s_ = 0.0;
  int sector_ = 0;
  NodeId head_ = kNoNode;

  std::uint64_t generated_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t relayed_ = 0;
  HistogramMetric* queue_hist_ = nullptr;
};

}  // namespace mhp
