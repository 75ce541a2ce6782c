// The cluster head's controller: runs the duty-cycle protocol of §II over
// the event-driven channel.
//
// Per duty cycle (per sector when sectoring is on): broadcast a wake-up
// inquiry, collect aggregated acknowledgements along set-cover paths
// (§V-F), turn the reported backlogs into polling requests, drive the
// on-line greedy scheduler slot by slot (§III-D) re-polling losses, then
// put the sector to sleep with its next wake time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "core/interference.hpp"
#include "core/protocol_config.hpp"
#include "core/protocol_messages.hpp"
#include "core/routing.hpp"
#include "core/sectors.hpp"
#include "metrics/registry.hpp"
#include "net/cluster.hpp"
#include "net/packet.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace mhp {

/// Everything the head decided at set-up time for one sector.
struct SectorPlan {
  std::vector<NodeId> members;
  /// Relaying path per member (member id → full path to head).
  std::map<NodeId, std::vector<NodeId>> data_path;
  /// Ack-collection cover paths (origin … head).
  std::vector<std::vector<NodeId>> ack_paths;
};

/// The plan of a sector whose member `members[i]` sends over `paths[i]`,
/// with the §V-F ack cover planned over those paths.
SectorPlan make_sector(std::vector<NodeId> members,
                       std::vector<std::vector<NodeId>> paths);

/// Supplies the per-cycle sector plans.  Multi-path rotation (§V-D)
/// changes relaying paths from cycle to cycle; sector *membership* must
/// stay fixed between calls to HeadAgent::plans_changed() (the head's
/// wake windows are sized from it).
class CyclePlanProvider {
 public:
  virtual ~CyclePlanProvider() = default;
  virtual const std::vector<SectorPlan>& plans(std::uint64_t cycle) = 0;
};

class HeadAgent : public ChannelListener {
 public:
  /// Paths come from `provider` each cycle; the provider must outlive
  /// the agent.
  HeadAgent(NodeId id, Simulator& sim, Channel& channel, FrameUidSource& uids,
            const ProtocolConfig& cfg, const CompatibilityOracle& oracle,
            CyclePlanProvider& provider, Rng rng);

  /// Kick off the first duty cycle at `first_cycle_start`.
  void start(Time first_cycle_start);

  // --- fault recovery (cfg.recovery.enabled) ---
  /// Called when the head declares `dead` unresponsive (suspicion from
  /// unanswered polls crossed cfg.recovery.suspect_polls).  The handler
  /// re-routes the surviving topology, swaps the provider's plans and
  /// calls plans_changed() / set_oracle(); it runs at a cycle boundary,
  /// so no phase is in flight.
  using ReplanHandler = std::function<void(NodeId dead)>;
  void set_replan_handler(ReplanHandler h) { replan_handler_ = std::move(h); }
  /// The provider's sector membership changed (a repair): re-size the
  /// sector windows.  Call only from a ReplanHandler or before start().
  void plans_changed() { init_windows(); }
  /// Swap the compatibility oracle (the old one must stay alive until
  /// the current phase ends; takes effect from the next phase).
  void set_oracle(const CompatibilityOracle& oracle) { oracle_ = &oracle; }
  /// Consult `f`'s link-degradation windows on frame reception
  /// (nullptr = off).
  void set_fault_injector(const FaultInjector* f) { faults_ = f; }

  std::uint64_t deaths_detected() const { return deaths_detected_; }
  std::uint64_t replans() const { return replans_; }

  // --- ChannelListener ---
  void on_frame_begin(const Frame& frame, NodeId from, double rx_power_w,
                      Time end) override;
  void on_frame_end(const Frame& frame, NodeId from, bool phy_ok) override;

  // --- statistics ---
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t packets_lost_abort() const { return lost_abort_; }
  std::uint64_t packets_lost_retry() const { return lost_retry_; }
  std::uint64_t cycles_completed() const { return cycles_done_; }
  std::uint64_t reactivations() const { return reactivations_; }
  /// Sectors aborted because their next slot would overrun the window.
  std::uint64_t window_overruns() const { return window_overruns_; }
  /// Duty time (wake-up to sleep broadcast) per sector drain.
  const Accumulator& duty_time_s() const { return duty_time_s_; }
  const EnergyMeter& meter() const { return tracker_.meter(); }

  /// Observe each delivery latency (generation to head reception) into
  /// `h` (nullptr = off).  Pure observation — never perturbs behaviour.
  void set_latency_histogram(HistogramMetric* h) { latency_hist_ = h; }

  void reset_stats(Time now);

 private:
  struct PhaseState {
    bool is_ack = false;
    std::optional<GreedyPollingScheduler> sched;
    /// wire request id = wire_base + scheduler-local id.
    std::uint32_t wire_base = 0;
    std::map<RequestId, std::uint32_t> attempts;
    std::uint32_t total = 0;
    std::uint32_t delivered = 0;
    std::uint32_t abandoned = 0;
  };

  void begin_cycle();
  void begin_sector(std::size_t k);
  void reset_phase(bool is_ack);
  const std::vector<SectorPlan>& current_plans() const;
  void init_windows();
  void start_ack_phase();
  void start_data_phase();
  void run_slot();
  void finish_slot();
  void end_sector();
  /// Cycle-boundary check of the suspicion table: declare at most one
  /// node dead and fire the replan handler.
  void evaluate_suspects();
  void broadcast(ControlPayload msg);
  Time window_start(std::uint64_t cycle, std::size_t sector) const;
  Time window_end() const;

  NodeId id_;
  Simulator& sim_;
  Channel& channel_;
  FrameUidSource& uids_;
  const ProtocolConfig& cfg_;
  const CompatibilityOracle* oracle_;  // swappable after a repair
  CyclePlanProvider& provider_;
  Rng rng_;
  RadioTracker tracker_;

  std::uint64_t cycle_ = 0;
  std::size_t sector_ = 0;
  Time t0_;
  Time cycle_start_;
  Time sector_began_;
  std::vector<Time> window_offset_;  // per sector, plus the period at back
  std::uint32_t next_wire_ = 1;
  PhaseState phase_;
  std::uint32_t slot_in_sector_ = 0;
  int rx_depth_ = 0;

  /// Record a wire request id arriving at the head this slot.
  void note_arrival(std::uint32_t wire);

  // Wire request ids that arrived at the head during the current slot:
  // a flat sorted set, cleared and refilled every slot without
  // reallocating.
  std::vector<std::uint32_t> arrived_wire_;
  std::vector<AckPayload> arrived_acks_;
  std::map<NodeId, std::uint32_t> backlog_;
  // Per-slot scratch reused by finish_slot().
  std::vector<RequestId> delivered_scratch_;
  std::vector<RequestId> due_scratch_;

  // Fault-recovery state.  A retry-exhausted request raises suspicion on
  // every non-head node of its path; hearing a node (any frame decoded
  // at the head) or a delivery over its path clears it.
  ReplanHandler replan_handler_;
  const FaultInjector* faults_ = nullptr;
  std::map<NodeId, std::uint32_t> suspicion_;
  /// Suspicion accounting is paused until this cycle after a repair
  /// (sensors that slept through the switch must not look dead).
  std::uint64_t suspicion_resume_cycle_ = 0;
  std::uint64_t deaths_detected_ = 0;
  std::uint64_t replans_ = 0;

  std::uint64_t packets_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t lost_abort_ = 0;
  std::uint64_t lost_retry_ = 0;
  std::uint64_t cycles_done_ = 0;
  std::uint64_t reactivations_ = 0;
  std::uint64_t window_overruns_ = 0;
  Accumulator duty_time_s_;
  HistogramMetric* latency_hist_ = nullptr;
};

}  // namespace mhp
