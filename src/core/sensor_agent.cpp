#include "core/sensor_agent.hpp"

#include <algorithm>

#include "util/assertx.hpp"

namespace mhp {

SensorAgent::SensorAgent(NodeId id, Simulator& sim, Channel& channel,
                         FrameUidSource& uids, const ProtocolConfig& cfg,
                         Rng rng)
    : id_(id),
      sim_(sim),
      channel_(channel),
      uids_(uids),
      cfg_(cfg),
      rng_(rng),
      tracker_(cfg.sensor_energy, sim.now(), RadioState::kIdle) {
  // Sensors boot awake (initialisation phase); the first SleepMsg puts
  // them on the duty-cycle regime.
  asleep_ = false;
  channel_.set_listener(id_, this);
}

void SensorAgent::start_sampling(double rate_bytes_per_s) {
  MHP_REQUIRE(rate_bytes_per_s >= 0.0, "negative data rate");
  rate_bytes_per_s_ = rate_bytes_per_s;
  if (rate_bytes_per_s_ <= 0.0) return;
  const double interval_s =
      static_cast<double>(cfg_.data_bytes) / rate_bytes_per_s_;
  // Desynchronise sources with a random initial phase.
  sim_.after(Time::seconds(interval_s * rng_.uniform()),
             [this] { generate_packet(); });
}

void SensorAgent::generate_packet() {
  if (dead_) return;  // a dead node stops sampling (and rescheduling)
  ++generated_;
  if (queue_.size() >= cfg_.queue_capacity) {
    // Overflow: drop the oldest sample (freshest data is worth more).
    queue_.pop_front();
    ++dropped_;
  }
  DataPayload p;
  p.origin = id_;
  p.seq = seq_++;
  p.generated_at = sim_.now();
  queue_.push_back(std::move(p));
  if (queue_hist_ != nullptr)
    queue_hist_->observe(static_cast<double>(queue_.size()));
  const double interval_s =
      static_cast<double>(cfg_.data_bytes) / rate_bytes_per_s_;
  sim_.after(Time::seconds(interval_s), [this] { generate_packet(); });
}

std::uint32_t SensorAgent::backlog() const {
  return static_cast<std::uint32_t>(queue_.size());
}

void SensorAgent::on_frame_begin(const Frame&, NodeId, double, Time) {
  if (dead_ || asleep_ || transmitting_) return;
  if (rx_depth_++ == 0) tracker_.set_state(sim_.now(), RadioState::kRx);
}

void SensorAgent::on_frame_end(const Frame& frame, NodeId from, bool phy_ok) {
  if (dead_) return;
  if (!asleep_ && !transmitting_ && rx_depth_ > 0) {
    if (--rx_depth_ == 0) tracker_.set_state(sim_.now(), RadioState::kIdle);
  }
  if (maybe_die()) return;    // receiving spent the last of the battery
  if (asleep_) return;        // radio off: frame never decoded
  if (transmitting_) return;  // half-duplex
  if (!phy_ok) return;
  if (faults_ != nullptr) {
    const double loss = faults_->link_loss(from, id_, sim_.now());
    if (loss > 0.0 && rng_.bernoulli(loss)) return;  // degraded link
  }
  if (frame.dst != kBroadcast && frame.dst != id_) return;

  switch (frame.kind) {
    case FrameKind::kControl:
      if (head_ != kNoNode && from != head_) break;  // foreign cluster
      handle_control(std::any_cast<const ControlPayload&>(frame.payload));
      break;
    case FrameKind::kData: {
      if (cfg_.random_loss > 0.0 && rng_.bernoulli(cfg_.random_loss)) break;
      const auto& p = std::any_cast<const DataPayload&>(frame.payload);
      relay_data_[p.request] = p;
      break;
    }
    case FrameKind::kAck: {
      if (cfg_.random_loss > 0.0 && rng_.bernoulli(cfg_.random_loss)) break;
      const auto& p = std::any_cast<const AckPayload&>(frame.payload);
      relay_ack_[p.request] = p;
      break;
    }
    default:
      break;  // probes / baseline traffic: not ours
  }
}

void SensorAgent::handle_control(const ControlPayload& ctrl) {
  if (const auto* poll = std::get_if<PollMsg>(&ctrl)) {
    handle_poll(*poll);
  } else if (const auto* sleep = std::get_if<SleepMsg>(&ctrl)) {
    if (sleep->sector == sector_) go_to_sleep(*sleep);
  } else if (const auto* wake = std::get_if<WakeupMsg>(&ctrl)) {
    if (wake->sector == sector_) {
      // New duty cycle: forget last cycle's relay state.
      relay_data_.clear();
      relay_ack_.clear();
      in_flight_.clear();
    }
  }
}

void SensorAgent::handle_poll(const PollMsg& poll) {
  for (const auto& a : poll.assignments) {
    if (a.from != id_) continue;
    if (a.is_ack)
      transmit_ack(a);
    else
      transmit_data(a);
    break;  // a sensor is never named twice in one slot
  }
}

void SensorAgent::transmit_data(const PollAssignment& a) {
  std::optional<DataPayload> payload;
  if (a.is_origin) {
    auto it = in_flight_.find(a.request);
    if (it != in_flight_.end()) {
      payload = it->second;  // re-poll after loss
    } else if (!queue_.empty()) {
      payload = queue_.front();
      queue_.pop_front();
      payload->request = a.request;
      in_flight_[a.request] = *payload;
    }
  } else {
    auto it = relay_data_.find(a.request);
    if (it != relay_data_.end()) payload = it->second;
  }
  if (!payload) return;  // nothing to send: upstream loss or empty queue
  if (!a.is_origin) ++relayed_;
  send_frame(FrameKind::kData, a.to, cfg_.data_bytes, *payload);
}

void SensorAgent::transmit_ack(const PollAssignment& a) {
  AckPayload payload;
  if (a.is_origin) {
    payload.request = a.request;
  } else {
    auto it = relay_ack_.find(a.request);
    if (it == relay_ack_.end()) return;  // upstream ack lost
    payload = it->second;
  }
  // Aggregate own backlog while forwarding (§V-F).
  payload.backlog.push_back({id_, backlog()});
  send_frame(FrameKind::kAck, a.to, cfg_.ack_bytes, payload);
}

void SensorAgent::send_frame(FrameKind kind, NodeId dst, std::uint32_t bytes,
                             std::any payload) {
  // Transmit after the radio turnaround.
  sim_.after(cfg_.turnaround, [this, kind, dst, bytes,
                               payload = std::move(payload)]() mutable {
    if (dead_ || asleep_) return;
    Frame f;
    f.uid = uids_.next();
    f.kind = kind;
    f.src = id_;
    f.dst = dst;
    f.origin = id_;
    f.size_bytes = bytes;
    f.payload = std::move(payload);
    transmitting_ = true;
    tracker_.set_state(sim_.now(), RadioState::kTx);
    ++frames_sent_;
    channel_.transmit(id_, f);
    sim_.after(channel_.airtime(bytes), [this] {
      if (dead_) return;
      transmitting_ = false;
      if (!asleep_)
        tracker_.set_state(sim_.now(),
                           rx_depth_ > 0 ? RadioState::kRx : RadioState::kIdle);
      maybe_die();  // transmitting may have spent the last of the battery
    });
  });
}

void SensorAgent::go_to_sleep(const SleepMsg& sleep) {
  asleep_ = true;
  rx_depth_ = 0;
  tracker_.set_state(sim_.now(), RadioState::kSleep);
  // Unconfirmed in-flight packets die with the cycle (§II: the head
  // re-polls within a cycle only).
  in_flight_.clear();
  relay_data_.clear();
  relay_ack_.clear();
  // Wake early by the configured margin, plus bounded clock drift.
  const auto jitter_ns = static_cast<std::int64_t>(
      rng_.uniform(-1.0, 1.0) *
      static_cast<double>(cfg_.wake_jitter.nanos()));
  Time wake = sleep.next_wakeup - cfg_.wake_margin + Time::ns(jitter_ns);
  if (wake < sim_.now()) wake = sim_.now();
  sim_.at(wake, [this] { wake_up(); });
}

void SensorAgent::wake_up() {
  if (dead_ || !asleep_) return;
  if (maybe_die()) return;  // battery emptied during the night
  asleep_ = false;
  awake_since_ = sim_.now();
  tracker_.set_state(sim_.now(), RadioState::kIdle);
}

void SensorAgent::fail() {
  if (dead_) return;
  dead_ = true;
  asleep_ = true;
  transmitting_ = false;
  rx_depth_ = 0;
  tracker_.set_state(sim_.now(), RadioState::kSleep);
}

void SensorAgent::set_battery(double budget_j,
                              std::function<void()> on_exhausted) {
  MHP_REQUIRE(budget_j > 0.0, "battery budget must be positive");
  battery_j_ = budget_j;
  on_battery_exhausted_ = std::move(on_exhausted);
}

bool SensorAgent::maybe_die() {
  if (dead_ || battery_j_ <= 0.0) return false;
  tracker_.settle(sim_.now());
  if (tracker_.lifetime_energy_j() < battery_j_) return false;
  fail();
  if (on_battery_exhausted_) on_battery_exhausted_();
  return true;
}

void SensorAgent::reset_stats(Time now) {
  tracker_.reset(now);
  generated_ = 0;
  dropped_ = 0;
  frames_sent_ = 0;
  relayed_ = 0;
}

}  // namespace mhp
