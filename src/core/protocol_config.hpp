// Tunables of the polling protocol simulation.
#pragma once

#include <cstdint>

#include "fault/fault_plan.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "route/routing_engine.hpp"  // RoutingPolicy
#include "sim/time.hpp"

namespace mhp {

/// Which propagation model the simulation's channel uses.  The protocol
/// never assumes a model — it measures connectivity and interference —
/// so switching to shadowed (non-disc, §III-B) coverage must not break
/// correctness, only change the discovered topology.
enum class PropagationModel {
  kTwoRayGround,  // NS-2's default; the paper's evaluation setting
  kFreeSpace,
  kLogNormalShadowing,
};

/// Head-driven fault recovery: detect dead relays from unanswered polls
/// and re-run the balanced max-flow routing on the surviving topology.
/// Off by default — with recovery disabled (and an empty fault plan) the
/// protocol behaves bit-for-bit as before this subsystem existed.
struct FaultRecoveryConfig {
  bool enabled = false;
  /// Accumulated failed-poll evidence against a node before the head
  /// declares it dead (each retry-exhausted request increments every
  /// non-head node on its path; a heard or delivering node is cleared).
  std::uint32_t suspect_polls = 3;
  /// Base re-poll backoff after an unanswered poll, in slots; doubles
  /// per consecutive failure of the same request.
  std::uint32_t backoff_slots = 2;
  std::uint32_t max_backoff_slots = 16;
  /// Hard cap on route repairs per run (guards against a noisy channel
  /// triggering repeated false declarations).
  std::uint32_t max_replans = 8;
};

struct ProtocolConfig {
  /// Wake-up period (time between consecutive duty cycles).
  Time cycle_period = Time::ms(1000);

  /// Frame sizes.  80-byte data packets as in the paper's evaluation.
  std::uint32_t data_bytes = 80;
  std::uint32_t control_bytes = 16;
  std::uint32_t ack_bytes = 80;

  /// Radio turnaround between hearing a poll and transmitting.
  Time turnaround = Time::us(20);
  /// Idle margin at the end of each slot.
  Time slot_guard = Time::us(100);
  /// Sensors wake this much before their window to absorb clock drift.
  Time wake_margin = Time::ms(1);
  /// Max absolute clock drift applied to sensor wake-ups.
  Time wake_jitter = Time::us(500);

  /// Compatibility knowledge order M (§III-B suggests 2 or 3).
  int oracle_order = 3;

  /// Relaying-path computation (kBalancedMaxFlow is the paper's §III-A
  /// scheme; kShortestPath the ablation baseline).
  RoutingPolicy routing = RoutingPolicy::kBalancedMaxFlow;

  /// Divide the cluster into sectors (§IV) instead of draining it whole.
  bool use_sectors = false;

  /// Rotate multi-path sensors across their relaying paths in proportion
  /// to path flow (§V-D).  Only meaningful without sectors (sector trees
  /// fix one path per sensor).
  bool rotate_paths = true;

  /// Per-sensor packet queue capacity; overflow drops oldest packets.
  std::size_t queue_capacity = 64;
  /// Cap on data requests per sensor per duty cycle.
  std::uint32_t max_packets_per_cycle = 128;
  /// Re-polls before the head gives a request up as lost.
  std::uint32_t max_retries = 8;

  /// Cap on how much of the cycle the head may spend draining (token
  /// rotation between clusters, §V-G, gives each head period/K).  Zero
  /// means the whole cycle period is available.
  Time max_drain_window = Time::zero();

  /// Uniform random per-frame loss injected on sensor data/ack frames
  /// (models fading the SINR schedule cannot foresee).  0 disables.
  double random_loss = 0.0;

  std::uint64_t seed = 1;

  /// Injected faults (node deaths, link-degradation windows).  An empty
  /// plan — the default — installs nothing and changes nothing.
  FaultPlan faults;
  /// Head-driven detection and route repair (see FaultRecoveryConfig).
  FaultRecoveryConfig recovery;

  PropagationModel propagation = PropagationModel::kTwoRayGround;
  /// Shadowing parameters (kLogNormalShadowing only).
  double shadowing_sigma_db = 4.0;
  double shadowing_exponent = 2.3;
  std::uint64_t environment_seed = 1;

  RadioParams radio{};
  EnergyModel sensor_energy = EnergyModel::typical_sensor();
  EnergyModel head_energy = EnergyModel::cluster_head();

  /// Duration of one polling slot: poll broadcast + turnaround + data
  /// frame + guard.
  Time slot_duration() const {
    const double bits_ctrl = static_cast<double>(control_bytes) * 8.0;
    const double bits_data = static_cast<double>(data_bytes) * 8.0;
    return Time::seconds(bits_ctrl / radio.bandwidth_bps) + turnaround +
           Time::seconds(bits_data / radio.bandwidth_bps) + slot_guard;
  }
};

}  // namespace mhp
