#include "core/head_agent.hpp"

#include <algorithm>

#include "core/ack_collection.hpp"
#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

SectorPlan make_sector(std::vector<NodeId> members,
                       std::vector<std::vector<NodeId>> paths) {
  SectorPlan sp;
  const AckPlan ack = plan_ack_cover(members, paths);
  MHP_ENSURE(ack.covers_all, "ack cover incomplete");
  sp.ack_paths = ack.poll_paths;
  for (std::size_t i = 0; i < members.size(); ++i)
    sp.data_path[members[i]] = std::move(paths[i]);
  sp.members = std::move(members);
  return sp;
}

HeadAgent::HeadAgent(NodeId id, Simulator& sim, Channel& channel,
                     FrameUidSource& uids, const ProtocolConfig& cfg,
                     const CompatibilityOracle& oracle,
                     CyclePlanProvider& provider, Rng rng)
    : id_(id),
      sim_(sim),
      channel_(channel),
      uids_(uids),
      cfg_(cfg),
      oracle_(&oracle),
      provider_(provider),
      rng_(rng),
      tracker_(cfg.head_energy, sim.now(), RadioState::kIdle) {
  channel_.set_listener(id_, this);
  init_windows();
}

const std::vector<SectorPlan>& HeadAgent::current_plans() const {
  return provider_.plans(cycle_);
}

void HeadAgent::init_windows() {
  // Sector windows proportional to member count (at least one share
  // each), packed into the drain window (the whole cycle unless token
  // rotation caps it).
  const auto& plans = current_plans();
  MHP_REQUIRE(!plans.empty(), "head needs at least one sector plan");
  Time drain = cfg_.cycle_period;
  if (cfg_.max_drain_window > Time::zero())
    drain = std::min(drain, cfg_.max_drain_window);
  double total = 0.0;
  for (const auto& s : plans)
    total += static_cast<double>(std::max<std::size_t>(s.members.size(), 1));
  window_offset_.resize(plans.size() + 1);
  double acc = 0.0;
  for (std::size_t k = 0; k < plans.size(); ++k) {
    window_offset_[k] = Time::seconds(drain.to_seconds() * acc);
    acc += static_cast<double>(
               std::max<std::size_t>(plans[k].members.size(), 1)) /
           total;
  }
  window_offset_.back() = drain;
}

void HeadAgent::start(Time first_cycle_start) {
  MHP_REQUIRE(first_cycle_start >= sim_.now(), "start time in the past");
  t0_ = first_cycle_start;
  sim_.at(first_cycle_start, [this] { begin_cycle(); });
}

Time HeadAgent::window_start(std::uint64_t cycle, std::size_t sector) const {
  return t0_ + cfg_.cycle_period * static_cast<std::int64_t>(cycle) +
         window_offset_[sector];
}

Time HeadAgent::window_end() const {
  if (sector_ + 1 < current_plans().size())
    return window_start(cycle_, sector_ + 1);
  return window_start(cycle_ + 1, 0);
}

void HeadAgent::begin_cycle() {
  cycle_start_ = sim_.now();
  sector_ = 0;
  begin_sector(0);
}

void HeadAgent::begin_sector(std::size_t k) {
  sector_ = k;
  sector_began_ = sim_.now();
  backlog_.clear();
  if (current_plans()[k].members.empty()) {
    end_sector();
    return;
  }
  broadcast(WakeupMsg{cycle_, static_cast<int>(k)});
  const Time setup = channel_.airtime(cfg_.control_bytes) + cfg_.turnaround +
                     cfg_.slot_guard;
  sim_.after(setup, [this] { start_ack_phase(); });
}

void HeadAgent::reset_phase(bool is_ack) {
  // PhaseState is not assignable (the scheduler holds an oracle
  // reference); reset fields in place.
  phase_.is_ack = is_ack;
  phase_.sched.emplace(*oracle_);
  phase_.wire_base = next_wire_;
  phase_.attempts.clear();
  phase_.total = 0;
  phase_.delivered = 0;
  phase_.abandoned = 0;
}

void HeadAgent::start_ack_phase() {
  reset_phase(/*is_ack=*/true);
  const auto& plan = current_plans()[sector_];
  for (const auto& path : plan.ack_paths) {
    phase_.sched->add_request(path);
    ++phase_.total;
  }
  next_wire_ += static_cast<std::uint32_t>(plan.ack_paths.size());
  run_slot();
}

void HeadAgent::start_data_phase() {
  reset_phase(/*is_ack=*/false);
  const auto& plan = current_plans()[sector_];
  std::uint32_t count = 0;
  for (NodeId s : plan.members) {
    const auto it = backlog_.find(s);
    if (it == backlog_.end()) continue;  // ack lost: unknown, skip cycle
    const std::uint32_t n =
        std::min(it->second, cfg_.max_packets_per_cycle);
    const auto path_it = plan.data_path.find(s);
    MHP_ENSURE(path_it != plan.data_path.end(), "member without data path");
    for (std::uint32_t i = 0; i < n; ++i) {
      phase_.sched->add_request(path_it->second);
      ++phase_.total;
      ++count;
    }
  }
  next_wire_ += count;
  run_slot();
}

void HeadAgent::run_slot() {
  MHP_ENSURE(phase_.sched.has_value(), "slot without a phase");
  if (phase_.sched->finished()) {
    if (phase_.is_ack) {
      start_data_phase();
    } else {
      end_sector();
    }
    return;
  }
  // Window guard: a slot that cannot finish before the window closes is
  // not started; whatever is undelivered counts as lost (§VI-A: above the
  // cluster-size threshold packets are lost).
  if (sim_.now() + cfg_.slot_duration() +
          channel_.airtime(cfg_.control_bytes) >
      window_end()) {
    lost_abort_ += phase_.is_ack ? 0 : (phase_.total - phase_.delivered -
                                        phase_.abandoned);
    ++window_overruns_;
    end_sector();
    return;
  }

  const std::vector<ScheduledTx>* planned = nullptr;
  {
    MHP_SPAN("head/plan_slot");
    planned = &phase_.sched->plan_slot();
    MHP_SPAN_COUNTER("scheduled", planned->size());
  }
  const std::vector<ScheduledTx>& txs = *planned;
  if (txs.empty()) {
    // Every active request is held back by retry backoff: let the slot
    // pass idle and try again.  Only possible under fault recovery.
    MHP_ENSURE(phase_.sched->has_deferred(),
               "scheduler planned an empty slot while busy");
    ++slot_in_sector_;
    arrived_wire_.clear();
    arrived_acks_.clear();
    sim_.after(cfg_.slot_duration(), [this] { finish_slot(); });
    return;
  }
  PollMsg poll;
  poll.cycle = cycle_;
  poll.slot = slot_in_sector_++;
  poll.assignments.reserve(txs.size());
  for (const auto& s : txs) {
    PollAssignment a;
    a.from = s.tx.from;
    a.to = s.tx.to;
    a.request = phase_.wire_base + s.request;
    a.is_ack = phase_.is_ack;
    a.is_origin = (s.hop == 0);
    poll.assignments.push_back(a);
  }
  arrived_wire_.clear();
  arrived_acks_.clear();
  broadcast(std::move(poll));
  sim_.after(cfg_.slot_duration(), [this] { finish_slot(); });
}

void HeadAgent::finish_slot() {
  // Fold arrived acks into the backlog map.
  for (const auto& ack : arrived_acks_)
    for (const auto& [sensor, count] : ack.backlog) backlog_[sensor] = count;

  std::vector<RequestId>& delivered = delivered_scratch_;
  delivered.clear();
  for (std::uint32_t wire : arrived_wire_) {
    if (wire < phase_.wire_base) continue;
    const std::uint32_t local = wire - phase_.wire_base;
    if (local < phase_.total) delivered.push_back(local);
  }
  phase_.delivered += static_cast<std::uint32_t>(delivered.size());

  // Copy: the retry-budget loop below needs the due set after
  // complete_slot() has recycled the scheduler's buffer.
  std::vector<RequestId>& due = due_scratch_;
  {
    const auto& due_ref = phase_.sched->due_now();
    due.assign(due_ref.begin(), due_ref.end());
  }

  // A delivery vouches for every node on its path.
  if (cfg_.recovery.enabled && !suspicion_.empty())
    for (RequestId id : delivered)
      for (NodeId n : phase_.sched->request_path(id)) suspicion_.erase(n);

  phase_.sched->complete_slot(delivered);

  // Retry budget: abandon requests that keep failing (e.g. a reported
  // backlog the sensor no longer holds).
  for (RequestId id : due) {
    if (std::find(delivered.begin(), delivered.end(), id) != delivered.end())
      continue;
    ++reactivations_;
    if (++phase_.attempts[id] >= cfg_.max_retries) {
      phase_.sched->abandon(id);
      ++phase_.abandoned;
      if (!phase_.is_ack) ++lost_retry_;
      // A retry-exhausted request is evidence against its whole path
      // (minus the head); the dead node accumulates across paths while
      // innocents get cleared by their own deliveries.
      if (cfg_.recovery.enabled && cycle_ >= suspicion_resume_cycle_)
        for (NodeId n : phase_.sched->request_path(id))
          if (n != id_) ++suspicion_[n];
    } else if (cfg_.recovery.enabled && cfg_.recovery.backoff_slots > 0) {
      // Exponential backoff before the re-poll: a dead relay must not
      // monopolise the drain window.
      const std::uint32_t shift = std::min(phase_.attempts[id] - 1, 16u);
      const auto delay = std::min<std::size_t>(
          static_cast<std::size_t>(cfg_.recovery.backoff_slots) << shift,
          cfg_.recovery.max_backoff_slots);
      phase_.sched->defer(id, delay);
    }
  }
  run_slot();
}

void HeadAgent::end_sector() {
  duty_time_s_.add((sim_.now() - sector_began_).to_seconds());
  SleepMsg sleep;
  sleep.cycle = cycle_;
  sleep.sector = static_cast<int>(sector_);
  sleep.next_wakeup = window_start(cycle_ + 1, sector_);
  if (!current_plans()[sector_].members.empty()) broadcast(sleep);
  const Time after_tx = channel_.airtime(cfg_.control_bytes);

  if (sector_ + 1 < current_plans().size()) {
    const Time next = std::max(window_start(cycle_, sector_ + 1),
                               sim_.now() + after_tx);
    const std::size_t k = sector_ + 1;
    sim_.at(next, [this, k] { begin_sector(k); });
  } else {
    evaluate_suspects();
    ++cycles_done_;
    ++cycle_;
    slot_in_sector_ = 0;
    const Time next =
        std::max(window_start(cycle_, 0), sim_.now() + after_tx);
    sim_.at(next, [this] { begin_cycle(); });
  }
}

void HeadAgent::evaluate_suspects() {
  MHP_SPAN("head/detect");
  if (!cfg_.recovery.enabled) return;
  if (replans_ >= cfg_.recovery.max_replans) return;
  // One declaration per cycle: the strongest suspect (ties go to the
  // lowest id — a wrong pick re-accumulates and is corrected next time).
  NodeId worst = kNoNode;
  std::uint32_t votes = 0;
  for (const auto& [node, count] : suspicion_)
    if (count > votes) {
      worst = node;
      votes = count;
    }
  if (worst == kNoNode || votes < cfg_.recovery.suspect_polls) return;
  ++deaths_detected_;
  ++replans_;
  suspicion_.clear();
  // Sensors already asleep keep their pre-repair wake times for one
  // cycle; do not read their silence as death.
  suspicion_resume_cycle_ = cycle_ + 2;
  if (replan_handler_) replan_handler_(worst);
}

void HeadAgent::broadcast(ControlPayload msg) {
  Frame f;
  f.uid = uids_.next();
  f.kind = FrameKind::kControl;
  f.src = id_;
  f.dst = kBroadcast;
  f.origin = id_;
  f.size_bytes = cfg_.control_bytes;
  f.payload = std::move(msg);
  tracker_.set_state(sim_.now(), RadioState::kTx);
  channel_.transmit(id_, f);
  sim_.after(channel_.airtime(cfg_.control_bytes), [this] {
    tracker_.set_state(sim_.now(),
                       rx_depth_ > 0 ? RadioState::kRx : RadioState::kIdle);
  });
}

void HeadAgent::on_frame_begin(const Frame&, NodeId, double, Time) {
  if (tracker_.state() == RadioState::kTx) return;
  if (rx_depth_++ == 0) tracker_.set_state(sim_.now(), RadioState::kRx);
}

void HeadAgent::on_frame_end(const Frame& frame, NodeId from, bool phy_ok) {
  if (tracker_.state() != RadioState::kTx && rx_depth_ > 0) {
    if (--rx_depth_ == 0) tracker_.set_state(sim_.now(), RadioState::kIdle);
  }
  if (!phy_ok) return;
  // Any frame decoded at the head vouches for its sender — including
  // overheard relay traffic addressed elsewhere.
  if (cfg_.recovery.enabled && !suspicion_.empty()) suspicion_.erase(from);
  if (faults_ != nullptr) {
    const double loss = faults_->link_loss(from, id_, sim_.now());
    if (loss > 0.0 && rng_.bernoulli(loss)) return;  // degraded link
  }
  if (frame.dst != id_ && frame.dst != kBroadcast) return;
  if (cfg_.random_loss > 0.0 &&
      (frame.kind == FrameKind::kData || frame.kind == FrameKind::kAck) &&
      rng_.bernoulli(cfg_.random_loss))
    return;

  switch (frame.kind) {
    case FrameKind::kData: {
      const auto& p = std::any_cast<const DataPayload&>(frame.payload);
      note_arrival(p.request);
      ++packets_received_;
      bytes_received_ += frame.size_bytes;
      if (latency_hist_ != nullptr)
        latency_hist_->observe((sim_.now() - p.generated_at).to_seconds());
      break;
    }
    case FrameKind::kAck: {
      const auto& p = std::any_cast<const AckPayload&>(frame.payload);
      note_arrival(p.request);
      arrived_acks_.push_back(p);
      break;
    }
    default:
      break;
  }
}

void HeadAgent::note_arrival(std::uint32_t wire) {
  const auto it =
      std::lower_bound(arrived_wire_.begin(), arrived_wire_.end(), wire);
  if (it == arrived_wire_.end() || *it != wire) arrived_wire_.insert(it, wire);
}

void HeadAgent::reset_stats(Time now) {
  tracker_.reset(now);
  packets_received_ = 0;
  bytes_received_ = 0;
  lost_abort_ = 0;
  lost_retry_ = 0;
  cycles_done_ = 0;
  reactivations_ = 0;
  window_overruns_ = 0;
  duty_time_s_ = Accumulator{};
}

}  // namespace mhp
