#include "baseline/smac_node.hpp"

#include <algorithm>

#include "util/assertx.hpp"

namespace mhp {

namespace {
constexpr Time kSlack = Time::us(300);  // timeout margin beyond airtimes
}

SmacNode::SmacNode(NodeId id, NodeId sink, Simulator& sim, Channel& channel,
                   FrameUidSource& uids, const SmacConfig& cfg, Rng rng,
                   bool always_on, Time phase)
    : id_(id),
      sink_(sink),
      sim_(sim),
      channel_(channel),
      uids_(uids),
      cfg_(cfg),
      rng_(rng),
      always_on_(always_on),
      phase_(phase),
      tracker_(cfg.energy, sim.now(), RadioState::kIdle),
      aodv_(id) {
  channel_.set_listener(id_, this);
}

void SmacNode::start() {
  // First frame boundary at this node's schedule phase.
  sim_.after(phase_, [this] { on_frame_boundary(); });
}

void SmacNode::start_cbr(double rate_bytes_per_s) {
  MHP_REQUIRE(rate_bytes_per_s >= 0.0, "negative rate");
  rate_bytes_per_s_ = rate_bytes_per_s;
  if (rate_bytes_per_s_ <= 0.0) return;
  const double interval =
      static_cast<double>(cfg_.data_bytes) / rate_bytes_per_s_;
  sim_.after(Time::seconds(interval * rng_.uniform()),
             [this] { generate_packet(); });
}

void SmacNode::fail() {
  if (dead_) return;
  dead_ = true;
  asleep_ = true;
  transmitting_ = false;
  rx_depth_ = 0;
  contending_ = false;
  discovering_ = false;
  cancel_timer();
  if (discovery_timer_) {
    sim_.cancel(*discovery_timer_);
    discovery_timer_.reset();
  }
  op_ = Op::kNone;
  op_peer_.reset();
  op_data_.reset();
  op_frame_.reset();
  tracker_.set_state(sim_.now(), RadioState::kSleep);
}

void SmacNode::set_battery(double budget_j,
                           std::function<void()> on_exhausted) {
  MHP_REQUIRE(budget_j > 0.0, "battery budget must be positive");
  battery_j_ = budget_j;
  on_battery_exhausted_ = std::move(on_exhausted);
}

bool SmacNode::maybe_die() {
  if (dead_ || battery_j_ <= 0.0) return false;
  tracker_.settle(sim_.now());
  if (tracker_.lifetime_energy_j() < battery_j_) return false;
  fail();
  if (on_battery_exhausted_) on_battery_exhausted_();
  return true;
}

void SmacNode::generate_packet() {
  if (dead_) return;  // stops the CBR reschedule chain
  ++generated_;
  BaselineData d;
  d.final_dest = sink_;
  d.origin = id_;
  d.seq = seq_++;
  d.generated_at = sim_.now();
  dispatch_data(std::move(d));
  const double interval =
      static_cast<double>(cfg_.data_bytes) / rate_bytes_per_s_;
  sim_.after(Time::seconds(interval), [this] { generate_packet(); });
}

bool SmacNode::in_listen(Time t) const {
  if (always_on_) return true;
  const std::int64_t period = cfg_.frame_period.nanos();
  const auto listen =
      static_cast<std::int64_t>(cfg_.duty_cycle *
                                static_cast<double>(period));
  const std::int64_t local =
      (t.nanos() - phase_.nanos()) % period;
  return (local >= 0 ? local : local + period) < listen;
}

void SmacNode::on_frame_boundary() {
  if (dead_) return;  // stops the duty-cycle reschedule chain
  const Time boundary = sim_.now();
  radio_wake();
  if (maybe_die()) return;
  // Periodic SYNC maintenance (schedule broadcast) — pure overhead in
  // the steady state, but it contends for the medium like everything
  // else.
  if (cfg_.sync_every_frames > 0 && !always_on_ &&
      ++frames_seen_ % cfg_.sync_every_frames == 0) {
    Frame f;
    f.uid = uids_.next();
    f.kind = FrameKind::kMac;
    f.src = id_;
    f.dst = kBroadcast;
    f.origin = id_;
    f.size_bytes = cfg_.sync_bytes;
    f.payload = MacCtrl{MacCtrl::kSync, Time::zero()};
    ctrl_queue_.push_back(std::move(f));
  }
  try_send();
  if (!always_on_ && cfg_.duty_cycle < 1.0) {
    const auto listen = Time::seconds(cfg_.duty_cycle *
                                      cfg_.frame_period.to_seconds());
    const Time next_boundary = boundary + cfg_.frame_period;
    sim_.after(listen, [this, next_boundary] {
      // Listen period over: sleep unless an exchange keeps us up.
      if (op_ == Op::kNone && !transmitting_)
        radio_sleep_until(next_boundary);
    });
  }
  sim_.after(cfg_.frame_period, [this] { on_frame_boundary(); });
}

void SmacNode::radio_wake() {
  if (dead_ || !asleep_) return;
  asleep_ = false;
  tracker_.set_state(sim_.now(), RadioState::kIdle);
}

void SmacNode::radio_sleep_until(Time until) {
  if (always_on_) return;
  if (asleep_ || until <= sim_.now()) return;
  asleep_ = true;
  rx_depth_ = 0;
  if (contending_) {
    contending_ = false;
    cancel_timer();
  }
  tracker_.set_state(sim_.now(), RadioState::kSleep);
  sim_.at(until, [this] {
    if (!asleep_) return;
    // Wake only if we are inside a listen period (NAV sleep ending) —
    // otherwise stay down until the next frame boundary wakes us.
    if (in_listen(sim_.now())) {
      radio_wake();
      try_send();
    }
  });
}

void SmacNode::cancel_timer() {
  if (timer_) {
    sim_.cancel(*timer_);
    timer_.reset();
  }
}

void SmacNode::arm_timer(Time delay, EventFn fn) {
  cancel_timer();
  timer_ = sim_.after(delay, std::move(fn));
}

void SmacNode::try_send() {
  if (dead_ || asleep_ || transmitting_ || op_ != Op::kNone || contending_)
    return;
  if (ctrl_queue_.empty() && reliable_queue_.empty() && data_queue_.empty())
    return;
  if (!in_listen(sim_.now())) return;
  if (sim_.now() < nav_until_) {
    arm_timer(nav_until_ - sim_.now() + Time::us(1), [this] { try_send(); });
    return;
  }
  contending_ = true;
  // Draw a fresh backoff only when none is pending: 802.11-style
  // freeze-and-resume, so congested (central) nodes still drain their
  // counters and are not starved by fresh redraws on every busy sense.
  if (backoff_remaining_ == 0) {
    std::uint32_t cw = cfg_.contention_window << attempts_;
    cw = std::min(cw, cfg_.cw_max);
    backoff_remaining_ = 1 + static_cast<std::uint32_t>(rng_.below(cw));
  }
  arm_timer(cfg_.difs, [this] { contention_step(); });
}

void SmacNode::contention_step() {
  timer_.reset();
  if (dead_ || asleep_ || transmitting_ || op_ != Op::kNone) {
    contending_ = false;
    return;
  }
  if (!in_listen(sim_.now()) || sim_.now() < nav_until_) {
    contending_ = false;
    try_send();  // re-enters via the NAV/listen wait paths
    return;
  }
  if (channel_.carrier_sensed(id_)) {
    // Busy: freeze the counter, re-sense a DIFS later.
    arm_timer(cfg_.difs, [this] { contention_step(); });
    return;
  }
  if (--backoff_remaining_ > 0) {
    arm_timer(cfg_.backoff_slot, [this] { contention_step(); });
    return;
  }
  contention_fire();
}

void SmacNode::contention_fire() {
  contending_ = false;
  timer_.reset();
  if (dead_ || asleep_ || transmitting_ || op_ != Op::kNone) return;
  if (!ctrl_queue_.empty()) {
    Frame f = std::move(ctrl_queue_.front());
    ctrl_queue_.pop_front();
    ++control_sent_;
    transmit(std::move(f), Time::zero());
    return;
  }
  if (!reliable_queue_.empty() || op_frame_.has_value()) {
    send_reliable_ctrl();
    return;
  }
  if (data_queue_.empty()) return;
  const BaselineData& head = data_queue_.front();
  const auto hop = aodv_.next_hop(head.final_dest, sim_.now());
  if (!hop) {
    start_discovery();
    return;
  }
  op_peer_ = *hop;
  op_data_ = head;
  send_rts();
}

void SmacNode::send_reliable_ctrl() {
  if (!op_frame_) {
    op_frame_ = std::move(reliable_queue_.front());
    reliable_queue_.pop_front();
  }
  op_ = Op::kWaitCtrlAck;
  op_peer_ = op_frame_->dst;
  ++attempts_;
  ++control_sent_;
  Frame copy = *op_frame_;  // keep the original for retries
  transmit(std::move(copy), Time::zero());
  const Time dur = channel_.airtime(op_frame_->size_bytes) + cfg_.sifs +
                   channel_.airtime(cfg_.ack_bytes) + kSlack;
  arm_timer(dur, [this] {
    op_ = Op::kNone;
    if (attempts_ >= cfg_.retry_limit) {
      // Routing control exhausted its retries: give up on this frame.
      op_frame_.reset();
      op_peer_.reset();
      attempts_ = 0;
      ++mac_failures_;
    }
    try_send();
  });
}

void SmacNode::send_rts() {
  op_ = Op::kWaitCts;
  ++attempts_;
  const Time cts = channel_.airtime(cfg_.cts_bytes);
  const Time data = channel_.airtime(cfg_.data_bytes);
  const Time ack = channel_.airtime(cfg_.ack_bytes);
  const Time nav = cfg_.sifs * 3 + cts + data + ack;
  send_mac(MacCtrl::kRts, *op_peer_, nav, Time::zero());
  arm_timer(channel_.airtime(cfg_.rts_bytes) + cfg_.sifs + cts + kSlack,
            [this] {
              // CTS never came.
              op_ = Op::kNone;
              if (attempts_ >= cfg_.retry_limit)
                mac_failure();
              else
                try_send();
            });
}

void SmacNode::send_data_to(NodeId to, const BaselineData& data,
                            bool expects_ack) {
  Frame f;
  f.uid = uids_.next();
  f.kind = FrameKind::kData;
  f.src = id_;
  f.dst = to;
  f.origin = data.origin;
  f.size_bytes = cfg_.data_bytes;
  f.payload = data;
  ++data_sent_;
  transmit(std::move(f), cfg_.sifs);
  if (expects_ack) {
    const Time dur = cfg_.sifs + channel_.airtime(cfg_.data_bytes) +
                     cfg_.sifs + channel_.airtime(cfg_.ack_bytes) + kSlack;
    arm_timer(dur, [this] {
      op_ = Op::kNone;
      if (attempts_ >= cfg_.retry_limit)
        mac_failure();
      else
        try_send();
    });
  }
}

void SmacNode::send_mac(MacCtrl::Type type, NodeId to, Time nav, Time delay) {
  Frame f;
  f.uid = uids_.next();
  f.kind = FrameKind::kMac;
  f.src = id_;
  f.dst = to;
  f.origin = id_;
  f.size_bytes = type == MacCtrl::kRts   ? cfg_.rts_bytes
                 : type == MacCtrl::kCts ? cfg_.cts_bytes
                                         : cfg_.ack_bytes;
  f.payload = MacCtrl{type, nav};
  ++control_sent_;
  transmit(std::move(f), delay);
}

void SmacNode::transmit(Frame f, Time delay) {
  const auto bytes = f.size_bytes;
  sim_.after(delay, [this, f = std::move(f), bytes]() mutable {
    if (dead_ || asleep_) return;
    if (transmitting_) return;  // should not happen; drop defensively
    transmitting_ = true;
    tracker_.set_state(sim_.now(), RadioState::kTx);
    channel_.transmit(id_, std::move(f));
    sim_.after(channel_.airtime(bytes), [this] {
      if (dead_) return;
      transmitting_ = false;
      if (!asleep_)
        tracker_.set_state(sim_.now(), rx_depth_ > 0 ? RadioState::kRx
                                                     : RadioState::kIdle);
      if (maybe_die()) return;
      if (op_ == Op::kNone) try_send();
    });
  });
}

void SmacNode::mac_success() {
  cancel_timer();
  MHP_ENSURE(!data_queue_.empty(), "ack without a pending packet");
  aodv_.touch(data_queue_.front().final_dest, sim_.now(),
              cfg_.route_lifetime);
  data_queue_.pop_front();
  op_ = Op::kNone;
  op_peer_.reset();
  op_data_.reset();
  attempts_ = 0;
  try_send();
}

void SmacNode::mac_failure() {
  ++mac_failures_;
  if (op_peer_) aodv_.on_link_failure(*op_peer_);
  if (!data_queue_.empty()) {
    data_queue_.pop_front();  // drop; AODV re-discovers for the next one
    ++dropped_;
  }
  op_ = Op::kNone;
  op_peer_.reset();
  op_data_.reset();
  attempts_ = 0;
  try_send();
}

void SmacNode::dispatch_data(BaselineData data) {
  if (data_queue_.size() >= cfg_.queue_capacity) {
    data_queue_.pop_front();
    ++dropped_;
  }
  const NodeId dest = data.final_dest;
  data_queue_.push_back(std::move(data));
  if (queue_hist_ != nullptr)
    queue_hist_->observe(static_cast<double>(data_queue_.size()));
  if (!aodv_.next_hop(dest, sim_.now())) start_discovery();
  try_send();
}

void SmacNode::start_discovery() {
  if (discovering_) return;
  discovering_ = true;
  discovery_tries_ = 0;
  send_rreq();
}

void SmacNode::send_rreq() {
  ++discovery_tries_;
  ++rreq_sent_;
  Frame f;
  f.uid = uids_.next();
  f.kind = FrameKind::kRouting;
  f.src = id_;
  f.dst = kBroadcast;
  f.origin = id_;
  f.size_bytes = cfg_.rreq_bytes;
  f.payload = RoutingPayload{aodv_.make_rreq(sink_)};
  ctrl_queue_.push_back(std::move(f));
  try_send();
  discovery_timer_ = sim_.after(cfg_.rreq_retry_interval, [this] {
    if (!discovering_) return;
    if (aodv_.next_hop(sink_, sim_.now())) {
      discovering_ = false;
      return;
    }
    if (discovery_tries_ >= cfg_.rreq_retries) {
      discovering_ = false;
      if (!data_queue_.empty()) {
        data_queue_.pop_front();
        ++dropped_;
      }
      return;
    }
    send_rreq();
  });
}

void SmacNode::handle_rreq(const RreqMsg& rreq, NodeId from) {
  const auto action =
      aodv_.on_rreq(rreq, from, sim_.now(), cfg_.route_lifetime);
  if (action.reply) {
    Frame f;
    f.uid = uids_.next();
    f.kind = FrameKind::kRouting;
    f.src = id_;
    f.dst = from;
    f.origin = id_;
    f.size_bytes = cfg_.rrep_bytes;
    f.payload = RoutingPayload{action.rep};
    reliable_queue_.push_back(std::move(f));
    try_send();
  } else if (action.forward) {
    // Re-broadcast after a random jitter to de-synchronise the flood.
    const Time jitter = Time::ns(static_cast<std::int64_t>(
        rng_.uniform(0.0, static_cast<double>(cfg_.rreq_jitter.nanos()))));
    sim_.after(jitter, [this, fwd = action.fwd] {
      if (dead_) return;
      Frame f;
      f.uid = uids_.next();
      f.kind = FrameKind::kRouting;
      f.src = id_;
      f.dst = kBroadcast;
      f.origin = id_;
      f.size_bytes = cfg_.rreq_bytes;
      f.payload = RoutingPayload{fwd};
      ctrl_queue_.push_back(std::move(f));
      try_send();
    });
  }
}

void SmacNode::handle_rrep(const RrepMsg& rrep, NodeId from) {
  const auto onward =
      aodv_.on_rrep(rrep, from, sim_.now(), cfg_.route_lifetime);
  if (rrep.origin == id_) {
    discovering_ = false;
    try_send();
    return;
  }
  if (!onward) return;  // reverse route gone; flood will retry
  Frame f;
  f.uid = uids_.next();
  f.kind = FrameKind::kRouting;
  f.src = id_;
  f.dst = *onward;
  f.origin = id_;
  f.size_bytes = cfg_.rrep_bytes;
  RrepMsg fwd = rrep;
  fwd.hops += 1;
  f.payload = RoutingPayload{fwd};
  reliable_queue_.push_back(std::move(f));
  try_send();
}

void SmacNode::on_frame_begin(const Frame&, NodeId, double, Time) {
  if (dead_ || asleep_ || transmitting_) return;
  if (rx_depth_++ == 0) tracker_.set_state(sim_.now(), RadioState::kRx);
}

void SmacNode::on_frame_end(const Frame& frame, NodeId from, bool phy_ok) {
  if (dead_) return;
  if (!asleep_ && !transmitting_ && rx_depth_ > 0) {
    if (--rx_depth_ == 0) tracker_.set_state(sim_.now(), RadioState::kIdle);
  }
  if (maybe_die()) return;
  if (asleep_ || transmitting_) return;
  if (!phy_ok) return;

  const bool mine = frame.dst == id_ || frame.dst == kBroadcast;

  if (frame.kind == FrameKind::kMac) {
    const auto& ctrl = std::any_cast<const MacCtrl&>(frame.payload);
    if (frame.dst != id_) {
      // Virtual carrier sense from overheard RTS/CTS, plus S-MAC's
      // overhearing-avoidance sleep.
      if (ctrl.type == MacCtrl::kRts || ctrl.type == MacCtrl::kCts) {
        nav_until_ = std::max(nav_until_, sim_.now() + ctrl.nav);
        if (op_ == Op::kNone && !contending_)
          radio_sleep_until(std::min(nav_until_, sim_.now() + ctrl.nav));
      }
      return;
    }
    switch (ctrl.type) {
      case MacCtrl::kRts: {
        if (op_ != Op::kNone || sim_.now() < nav_until_) return;  // busy
        // Receiver role preempts any contention in progress (arm_timer
        // below cancels the contention timer; the frozen backoff counter
        // survives for the next attempt).
        contending_ = false;
        op_ = Op::kWaitData;
        op_peer_ = from;
        const Time data = channel_.airtime(cfg_.data_bytes);
        const Time ack = channel_.airtime(cfg_.ack_bytes);
        send_mac(MacCtrl::kCts, from, cfg_.sifs * 2 + data + ack, cfg_.sifs);
        arm_timer(cfg_.sifs + channel_.airtime(cfg_.cts_bytes) + cfg_.sifs +
                      data + kSlack,
                  [this] {
                    op_ = Op::kNone;  // data never came
                    op_peer_.reset();
                    try_send();
                  });
        break;
      }
      case MacCtrl::kCts: {
        if (op_ != Op::kWaitCts || from != *op_peer_) return;
        cancel_timer();
        op_ = Op::kWaitAck;
        send_data_to(*op_peer_, *op_data_, /*expects_ack=*/true);
        break;
      }
      case MacCtrl::kAck: {
        if (op_ == Op::kWaitAck && from == *op_peer_) {
          mac_success();
        } else if (op_ == Op::kWaitCtrlAck && from == *op_peer_) {
          cancel_timer();
          op_ = Op::kNone;
          op_frame_.reset();
          op_peer_.reset();
          attempts_ = 0;
          try_send();
        }
        break;
      }
      case MacCtrl::kSync:
        break;  // schedules are assigned at start-up; SYNC is overhead
    }
    return;
  }

  if (frame.kind == FrameKind::kData && frame.dst == id_) {
    const auto data = std::any_cast<BaselineData>(frame.payload);
    if (op_ == Op::kWaitData && from == *op_peer_) {
      cancel_timer();
      op_ = Op::kNone;
      op_peer_.reset();
    }
    send_mac(MacCtrl::kAck, from, Time::zero(), cfg_.sifs);
    if (data.final_dest == id_) {
      ++delivered_;
      bytes_delivered_ += cfg_.data_bytes;
      if (latency_hist_ != nullptr)
        latency_hist_->observe((sim_.now() - data.generated_at).to_seconds());
    } else {
      ++relayed_;
      dispatch_data(data);  // forward toward the sink
    }
    return;
  }

  if (frame.kind == FrameKind::kRouting && mine) {
    if (frame.dst == id_) {
      // Reliable routing unicast: always ACK, process each uid once (the
      // sender retries with the same uid when our ACK is lost).
      send_mac(MacCtrl::kAck, from, Time::zero(), cfg_.sifs);
      if (!seen_ctrl_uids_.insert(frame.uid).second) return;
    }
    const auto& routing = std::any_cast<const RoutingPayload&>(frame.payload);
    if (const auto* rreq = std::get_if<RreqMsg>(&routing))
      handle_rreq(*rreq, from);
    else if (const auto* rrep = std::get_if<RrepMsg>(&routing))
      handle_rrep(*rrep, from);
    return;
  }
}

void SmacNode::reset_stats(Time now) {
  tracker_.reset(now);
  generated_ = 0;
  delivered_ = 0;
  bytes_delivered_ = 0;
  dropped_ = 0;
  control_sent_ = 0;
  data_sent_ = 0;
  mac_failures_ = 0;
  rreq_sent_ = 0;
  relayed_ = 0;
}

}  // namespace mhp
