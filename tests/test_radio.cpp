#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "net/deployment.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"

namespace mhp {
namespace {

// ---------- Propagation ----------

TEST(FreeSpace, InverseSquareDecay) {
  FreeSpace fs;
  const double p1 = fs.rx_power_w(1.0, {0, 0}, {10, 0});
  const double p2 = fs.rx_power_w(1.0, {0, 0}, {20, 0});
  EXPECT_NEAR(p1 / p2, 4.0, 1e-9);
}

TEST(FreeSpace, ZeroDistanceReturnsTxPower) {
  FreeSpace fs;
  EXPECT_DOUBLE_EQ(fs.rx_power_w(0.7, {1, 1}, {1, 1}), 0.7);
}

TEST(TwoRayGround, MatchesFriisInsideCrossover) {
  TwoRayGround tr;
  FreeSpace fs;
  const double d = tr.crossover_distance_m() * 0.5;
  EXPECT_NEAR(tr.rx_power_w(1.0, {0, 0}, {d, 0}),
              fs.rx_power_w(1.0, {0, 0}, {d, 0}), 1e-15);
}

TEST(TwoRayGround, FourthPowerDecayBeyondCrossover) {
  TwoRayGround tr;
  const double d = tr.crossover_distance_m() * 2.0;
  const double p1 = tr.rx_power_w(1.0, {0, 0}, {d, 0});
  const double p2 = tr.rx_power_w(1.0, {0, 0}, {2 * d, 0});
  EXPECT_NEAR(p1 / p2, 16.0, 1e-9);
}

TEST(TwoRayGround, CrossoverDistanceFormula) {
  TwoRayGround tr(914e6, 1.5);
  const double lambda = 299792458.0 / 914e6;
  EXPECT_NEAR(tr.crossover_distance_m(),
              4.0 * M_PI * 1.5 * 1.5 / lambda, 1e-9);
}

TEST(LogDistanceShadowing, DeterministicPerPair) {
  LogDistanceShadowing ls(3.0, 6.0, 1.0, 914e6, 42);
  const double a = ls.rx_power_w(1.0, {0, 0}, {50, 20});
  const double b = ls.rx_power_w(1.0, {0, 0}, {50, 20});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(LogDistanceShadowing, Symmetric) {
  LogDistanceShadowing ls(3.0, 6.0, 1.0, 914e6, 42);
  EXPECT_DOUBLE_EQ(ls.rx_power_w(1.0, {0, 0}, {50, 20}),
                   ls.rx_power_w(1.0, {50, 20}, {0, 0}));
}

TEST(LogDistanceShadowing, EnvironmentSeedChangesCoverage) {
  LogDistanceShadowing a(3.0, 6.0, 1.0, 914e6, 1);
  LogDistanceShadowing b(3.0, 6.0, 1.0, 914e6, 2);
  EXPECT_NE(a.rx_power_w(1.0, {0, 0}, {50, 20}),
            b.rx_power_w(1.0, {0, 0}, {50, 20}));
}

TEST(LogDistanceShadowing, NonDiscCoverage) {
  // With shadowing, equal distances can differ wildly in received power —
  // the paper's "coverage area may not be a disc" point.
  LogDistanceShadowing ls(3.0, 8.0, 1.0, 914e6, 7);
  double lo = 1e300, hi = 0.0;
  for (int k = 0; k < 32; ++k) {
    const double theta = 2.0 * M_PI * k / 32.0;
    const double p = ls.rx_power_w(
        1.0, {0, 0}, {60.0 * std::cos(theta), 60.0 * std::sin(theta)});
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi / lo, 10.0);  // >10 dB spread around the circle
}

// ---------- Energy ----------

TEST(EnergyModel, TypicalOrdering) {
  const EnergyModel m = EnergyModel::typical_sensor();
  EXPECT_GT(m.tx_w, m.rx_w);
  EXPECT_GT(m.rx_w, m.idle_w * 0.99);
  EXPECT_GT(m.idle_w, 100.0 * m.sleep_w);  // idle listening dominates sleep
}

TEST(EnergyMeter, AccumulatesPerState) {
  EnergyMeter meter(EnergyModel{2.0, 1.0, 0.5, 0.1});
  meter.accumulate(RadioState::kTx, Time::sec(2));
  meter.accumulate(RadioState::kSleep, Time::sec(8));
  EXPECT_DOUBLE_EQ(meter.energy_in_j(RadioState::kTx), 4.0);
  EXPECT_DOUBLE_EQ(meter.energy_in_j(RadioState::kSleep), 0.8);
  EXPECT_DOUBLE_EQ(meter.total_energy_j(), 4.8);
  EXPECT_DOUBLE_EQ(meter.active_fraction(), 0.2);
  EXPECT_DOUBLE_EQ(meter.average_power_w(), 0.48);
}

TEST(RadioTracker, TransitionsChargeElapsedState) {
  RadioTracker t(EnergyModel{2.0, 1.0, 0.5, 0.1}, Time::zero(),
                 RadioState::kIdle);
  t.set_state(Time::sec(3), RadioState::kTx);
  t.set_state(Time::sec(4), RadioState::kSleep);
  t.settle(Time::sec(10));
  EXPECT_EQ(t.meter().time_in(RadioState::kIdle), Time::sec(3));
  EXPECT_EQ(t.meter().time_in(RadioState::kTx), Time::sec(1));
  EXPECT_EQ(t.meter().time_in(RadioState::kSleep), Time::sec(6));
}

TEST(RadioTracker, ResetClearsMeter) {
  RadioTracker t(EnergyModel::typical_sensor(), Time::zero(),
                 RadioState::kIdle);
  t.reset(Time::sec(5));
  EXPECT_EQ(t.meter().total_time(), Time::zero());
  // The lifetime total keeps what the reset cleared.
  EXPECT_DOUBLE_EQ(t.lifetime_energy_j(),
                   5.0 * EnergyModel::typical_sensor().idle_w);
}

// The half-duplex state rule (sleep/idle/rx/tx) every agent's radio obeys.
RadioTracker awake_radio() {
  return RadioTracker(EnergyModel{2.0, 1.0, 0.5, 0.1}, Time::zero(),
                      RadioState::kIdle);
}

TEST(RadioTracker, OverlappingFramesStayInRxUntilTheLastEnds) {
  RadioTracker r = awake_radio();
  r.frame_begin(Time::sec(1));
  r.frame_begin(Time::sec(2));
  EXPECT_EQ(r.state(), RadioState::kRx);
  r.frame_end(Time::sec(3));
  EXPECT_EQ(r.state(), RadioState::kRx);
  r.frame_end(Time::sec(4));
  EXPECT_EQ(r.state(), RadioState::kIdle);
  r.frame_end(Time::sec(5));  // unmatched: the depth does not go negative
  r.frame_begin(Time::sec(6));
  EXPECT_EQ(r.state(), RadioState::kRx);
  r.settle(Time::sec(7));
  EXPECT_EQ(r.meter().time_in(RadioState::kRx), Time::sec(4));
  EXPECT_EQ(r.meter().time_in(RadioState::kIdle), Time::sec(3));
}

TEST(RadioTracker, FramesWhileAsleepDeadOrTransmittingDoNotCount) {
  RadioTracker r(EnergyModel::typical_sensor());  // boots asleep
  EXPECT_TRUE(r.asleep());
  r.frame_begin(Time::sec(1));
  EXPECT_EQ(r.state(), RadioState::kSleep);
  r.wake(Time::sec(2));
  r.frame_end(Time::sec(3));  // the frame that began in sleep
  EXPECT_EQ(r.state(), RadioState::kIdle);

  r.begin_tx(Time::sec(4));
  r.frame_begin(Time::sec(5));
  EXPECT_EQ(r.state(), RadioState::kTx);
  r.end_tx(Time::sec(6));
  EXPECT_EQ(r.state(), RadioState::kIdle);
  r.frame_end(Time::sec(7));  // the frame that began during the tx
  EXPECT_EQ(r.state(), RadioState::kIdle);

  // A frame heard before the tx whose end falls inside it: the end goes
  // unheard too, so the radio stays in rx until it sleeps.
  r.frame_begin(Time::sec(8));
  r.begin_tx(Time::sec(9));
  r.frame_end(Time::sec(10));
  r.end_tx(Time::sec(11));
  EXPECT_EQ(r.state(), RadioState::kRx);

  r.kill(Time::sec(12));
  r.frame_begin(Time::sec(13));
  r.frame_end(Time::sec(14));
  EXPECT_EQ(r.state(), RadioState::kSleep);
}

TEST(RadioTracker, EndOfTxReturnsToRxWhileAFrameIsArriving) {
  RadioTracker r = awake_radio();
  r.frame_begin(Time::sec(1));
  r.begin_tx(Time::sec(2));
  EXPECT_TRUE(r.transmitting());
  EXPECT_EQ(r.state(), RadioState::kTx);
  r.end_tx(Time::sec(3));
  EXPECT_FALSE(r.transmitting());
  EXPECT_EQ(r.state(), RadioState::kRx);
  r.frame_end(Time::sec(4));
  EXPECT_EQ(r.state(), RadioState::kIdle);
  r.settle(Time::sec(4));
  EXPECT_EQ(r.meter().time_in(RadioState::kRx), Time::sec(2));
  EXPECT_EQ(r.meter().time_in(RadioState::kTx), Time::sec(1));
}

TEST(RadioTracker, SleepZeroesTheRxDepth) {
  RadioTracker r = awake_radio();
  r.frame_begin(Time::sec(1));
  r.frame_begin(Time::sec(1));
  r.sleep(Time::sec(2));
  EXPECT_TRUE(r.asleep());
  EXPECT_EQ(r.state(), RadioState::kSleep);
  r.wake(Time::sec(3));
  EXPECT_EQ(r.state(), RadioState::kIdle);
  r.frame_end(Time::sec(4));  // ends of frames the sleep forgot
  r.frame_end(Time::sec(4));
  r.frame_begin(Time::sec(5));
  EXPECT_EQ(r.state(), RadioState::kRx);
  r.frame_end(Time::sec(6));  // one frame in progress, not three
  EXPECT_EQ(r.state(), RadioState::kIdle);
}

TEST(RadioTracker, KillIsFinalAndIdempotent) {
  RadioTracker r = awake_radio();
  r.begin_tx(Time::sec(1));
  r.kill(Time::sec(2));
  EXPECT_TRUE(r.dead());
  EXPECT_TRUE(r.asleep());
  EXPECT_FALSE(r.transmitting());
  EXPECT_EQ(r.state(), RadioState::kSleep);
  r.kill(Time::sec(3));
  r.wake(Time::sec(4));
  r.end_tx(Time::sec(5));  // the tx the death cut short
  EXPECT_TRUE(r.dead());
  EXPECT_EQ(r.state(), RadioState::kSleep);
  r.settle(Time::sec(6));
  EXPECT_EQ(r.meter().time_in(RadioState::kTx), Time::sec(1));
  EXPECT_EQ(r.meter().time_in(RadioState::kSleep), Time::sec(4));
}

TEST(RadioTracker, BatteryCountsEnergyFromBeforeReset) {
  RadioTracker r(EnergyModel{2.0, 1.0, 1.0, 0.0}, Time::zero(),
                 RadioState::kIdle);  // 1 W while idle
  const auto never = [] { ADD_FAILURE() << "died early"; };
  EXPECT_FALSE(r.check_battery(Time::sec(100), never));  // unlimited
  EXPECT_THROW(r.set_battery(0.0, nullptr), ContractViolation);

  RadioTracker b(EnergyModel{2.0, 1.0, 1.0, 0.0}, Time::zero(),
                 RadioState::kIdle);
  int died = 0;
  int exhausted = 0;
  b.set_battery(5.0, [&] {
    EXPECT_EQ(died, 1);  // the owner's cleanup runs first
    ++exhausted;
  });
  b.reset(Time::sec(3));  // 3 J spent in warm-up
  EXPECT_FALSE(b.check_battery(Time::sec(4), never));
  const auto die = [&] {
    ++died;
    b.kill(Time::sec(5));
  };
  // 5 J over the radio's life, though the meter holds only 2 J.
  EXPECT_TRUE(b.check_battery(Time::sec(5), die));
  EXPECT_DOUBLE_EQ(b.meter().total_energy_j(), 2.0);
  EXPECT_EQ(died, 1);
  EXPECT_EQ(exhausted, 1);
  EXPECT_FALSE(b.check_battery(Time::sec(9), die));  // dead: fires once
  EXPECT_EQ(exhausted, 1);
}

// ---------- Channel ----------

class ChannelTest : public ::testing::Test {
 protected:
  // Three sensors in a line plus a far node; head at origin.
  //   n0 at (30,0), n1 at (60,0), n2 at (90,0), head (id 3) at (0,0).
  ChannelTest() {
    positions_ = {{30, 0}, {60, 0}, {90, 0}, {0, 0}};
    powers_ = {RadioParams::kSensorTxPowerW, RadioParams::kSensorTxPowerW,
               RadioParams::kSensorTxPowerW, RadioParams::kHeadTxPowerW};
    channel_ =
        std::make_unique<Channel>(sim_, prop_, RadioParams{}, positions_,
                                  powers_);
  }

  Simulator sim_;
  TwoRayGround prop_;
  std::vector<Vec2> positions_;
  std::vector<double> powers_;
  std::unique_ptr<Channel> channel_;
};

TEST_F(ChannelTest, AirtimeMatchesBandwidth) {
  // 80 bytes at 200 kbps = 3.2 ms.
  EXPECT_EQ(channel_->airtime(80), Time::us(3200));
}

TEST_F(ChannelTest, SensorRangeIsBounded) {
  // Sensor Friis range at these powers is ≈61 m.
  EXPECT_TRUE(channel_->link_ok(0, 1));  // 30 m
  EXPECT_TRUE(channel_->link_ok(0, 2));  // 60 m: just inside
  EXPECT_TRUE(channel_->link_ok(1, 0));  // symmetric powers → symmetric
  // A 70 m sensor link is out of range.
  Simulator sim;
  TwoRayGround prop;
  Channel far(sim, prop, RadioParams{}, {{0, 0}, {70, 0}},
              {RadioParams::kSensorTxPowerW, RadioParams::kSensorTxPowerW});
  EXPECT_FALSE(far.link_ok(0, 1));
}

TEST_F(ChannelTest, HeadReachesEveryone) {
  for (NodeId s = 0; s < 3; ++s) EXPECT_TRUE(channel_->link_ok(3, s));
}

TEST_F(ChannelTest, ConcurrentOutcomeHalfDuplex) {
  // n1 sends to n0 while n0 sends to head: n0 cannot receive.
  const auto out = channel_->concurrent_outcome(
      {{1, 0}, {0, 3}});
  EXPECT_FALSE(out[0]);
}

TEST_F(ChannelTest, ConcurrentInterferenceBreaksWeakLink) {
  // Alone, n2→n1 works (30 m).  With n0 also transmitting (30 m from n1),
  // the SINR at n1 collapses.
  const auto alone = channel_->concurrent_outcome({{2, 1}});
  EXPECT_TRUE(alone[0]);
  const auto jammed = channel_->concurrent_outcome({{2, 1}, {0, 3}});
  EXPECT_FALSE(jammed[0]);
}

TEST_F(ChannelTest, DuplicateSenderRejected) {
  EXPECT_THROW(channel_->concurrent_outcome({{0, 1}, {0, 3}}),
               ContractViolation);
}

TEST(ChannelAccumulation, PairwiseCompatibleTripleCanFail) {
  // The paper's Fig 3: three transmissions, pairwise fine, jointly broken.
  // Three tight sender→receiver pairs placed far apart but with the middle
  // receiver seeing *accumulated* interference from both other senders.
  Simulator sim;
  TwoRayGround prop;
  RadioParams params;
  // Three 55 m sender→receiver pairs at 30× sensor power.  Each outside
  // sender is exactly 140 m from the middle receiver r1: a single
  // interferer leaves SINR ≈ 17 (fine); the two together halve it to
  // ≈ 8.5, below the 10× threshold.
  std::vector<Vec2> pos = {
      {195, 0}, {250, 0},   // s0 → r0
      {0, 0},   {55, 0},    // s1 → r1 (the victim)
      {55, 140}, {55, 195}, // s2 → r2
  };
  std::vector<double> pw(6, 30.0 * RadioParams::kSensorTxPowerW);
  Channel ch(sim, prop, params, pos, pw);

  std::vector<Channel::TxRx> pairs = {{0, 1}, {2, 3}, {4, 5}};
  // All three pairwise combinations fine:
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i + 1; j < 3; ++j) {
      const auto out = ch.concurrent_outcome({pairs[i], pairs[j]});
      ASSERT_TRUE(out[0] && out[1])
          << "pair (" << i << "," << j << ") should be compatible";
    }
  // The triple fails at r1 (index 1 of the group): interference
  // accumulates even though every pair was compatible.
  const auto all = ch.concurrent_outcome(pairs);
  EXPECT_FALSE(all[1]);
}

TEST_F(ChannelTest, TransmitDeliversToListeners) {
  struct Sink : ChannelListener {
    int begins = 0;
    int ends = 0;
    bool ok = false;
    void on_frame_begin(const Frame&, NodeId, double, Time) override {
      ++begins;
    }
    void on_frame_end(const Frame&, NodeId, bool phy_ok) override {
      ++ends;
      ok = phy_ok;
    }
  };
  Sink sink;
  channel_->set_listener(0, &sink);
  Frame f;
  f.uid = 1;
  f.kind = FrameKind::kData;
  f.src = 1;
  f.dst = 0;
  f.size_bytes = 80;
  channel_->transmit(1, f);
  sim_.run();
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  EXPECT_TRUE(sink.ok);
  EXPECT_EQ(channel_->frames_transmitted(), 1u);
}

TEST_F(ChannelTest, OverlappingTransmissionsCorrupt) {
  struct Sink : ChannelListener {
    int good = 0, bad = 0;
    void on_frame_end(const Frame&, NodeId, bool ok) override {
      (ok ? good : bad)++;
    }
  };
  Sink at1;
  channel_->set_listener(1, &at1);
  // n0 and n2 both 30 m from n1 transmit simultaneously to n1.
  Frame a, b;
  a.uid = 1, a.src = 0, a.dst = 1, a.size_bytes = 80;
  b.uid = 2, b.src = 2, b.dst = 1, b.size_bytes = 80;
  channel_->transmit(0, a);
  channel_->transmit(2, b);
  sim_.run();
  EXPECT_EQ(at1.good, 0);
  EXPECT_EQ(at1.bad, 2);
}

TEST_F(ChannelTest, CarrierSenseSeesActiveTransmission) {
  EXPECT_FALSE(channel_->carrier_sensed(1));
  Frame f;
  f.uid = 1, f.src = 0, f.dst = 3, f.size_bytes = 80;
  channel_->transmit(0, f);
  // While in flight the field at n1 (30 m away) exceeds the CS threshold.
  EXPECT_TRUE(channel_->carrier_sensed(1));
  sim_.run();
  EXPECT_FALSE(channel_->carrier_sensed(1));
}

TEST_F(ChannelTest, DoubleTransmitFromSameNodeThrows) {
  Frame f;
  f.uid = 1, f.src = 0, f.dst = 3, f.size_bytes = 80;
  channel_->transmit(0, f);
  Frame g = f;
  g.uid = 2;
  EXPECT_THROW(channel_->transmit(0, g), ContractViolation);
  sim_.run();
}

// ---------- Channel vs the dense reference ----------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Channel's event-driven algorithm before per-sender audible lists: every
// frame copies its whole power row, notifies, refreshes the interference
// snapshot and tests SINR at all n nodes, and the matrix is filled one
// propagation call per ordered pair.  The oracle for the audible-list
// Channel, which must reproduce it bit for bit.
class DenseReferenceChannel {
 public:
  DenseReferenceChannel(Simulator& sim, const Propagation& prop,
                        RadioParams params, const std::vector<Vec2>& positions,
                        const std::vector<double>& tx_power_w)
      : sim_(sim), params_(params), n_(positions.size()) {
    listeners_.assign(n_, nullptr);
    field_.assign(n_, 0.0);
    rx_matrix_.assign(n_ * n_, 0.0);
    for (std::size_t a = 0; a < n_; ++a)
      for (std::size_t b = 0; b < n_; ++b)
        if (a != b)
          rx_matrix_[a * n_ + b] =
              prop.rx_power_w(tx_power_w[a], positions[a], positions[b]);
  }

  void set_listener(NodeId node, ChannelListener* listener) {
    listeners_[node] = listener;
  }
  double sensed_power_w(NodeId at) const {
    return params_.noise_w + field_[at];
  }
  bool carrier_sensed(NodeId at) const {
    return field_[at] >= params_.cs_threshold_w;
  }

  void transmit(NodeId from, Frame frame) {
    const Time end =
        sim_.now() + Time::seconds(static_cast<double>(frame.size_bytes) *
                                   8.0 / params_.bandwidth_bps);
    ActiveTx tx{frame, from, end, std::vector<double>(n_),
                std::vector<double>(n_, 0.0)};
    for (std::size_t r = 0; r < n_; ++r) {
      tx.power_at[r] = r == from ? 0.0 : rx_matrix_[from * n_ + r];
      field_[r] += tx.power_at[r];
    }
    for (std::size_t r = 0; r < n_; ++r) {
      if (r == from || listeners_[r] == nullptr) continue;
      if (tx.power_at[r] >= params_.sensitivity_w)
        listeners_[r]->on_frame_begin(frame, from, tx.power_at[r], end);
    }
    const std::uint64_t uid = frame.uid;
    active_.push_back(std::move(tx));
    for (auto& t : active_)
      for (std::size_t r = 0; r < n_; ++r)
        t.max_other[r] = std::max(t.max_other[r], field_[r] - t.power_at[r]);
    sim_.at(end, [this, uid] { finish(uid); });
  }

 private:
  struct ActiveTx {
    Frame frame;
    NodeId from;
    Time end;
    std::vector<double> power_at;
    std::vector<double> max_other;
  };

  void finish(std::uint64_t uid) {
    auto it = std::find_if(active_.begin(), active_.end(),
                           [&](const ActiveTx& t) { return t.frame.uid == uid; });
    ActiveTx tx = std::move(*it);
    active_.erase(it);
    for (std::size_t r = 0; r < n_; ++r) field_[r] -= tx.power_at[r];
    for (auto& f : field_)
      if (f < 0.0) f = 0.0;
    for (std::size_t r = 0; r < n_; ++r) {
      if (r == tx.from || listeners_[r] == nullptr) continue;
      if (tx.power_at[r] < params_.sensitivity_w) continue;
      const double sinr = tx.power_at[r] / (params_.noise_w + tx.max_other[r]);
      listeners_[r]->on_frame_end(tx.frame, tx.from,
                                  sinr >= params_.sinr_threshold);
    }
  }

  Simulator& sim_;
  RadioParams params_;
  std::size_t n_;
  std::vector<double> rx_matrix_;
  std::vector<ChannelListener*> listeners_;
  std::vector<ActiveTx> active_;
  std::vector<double> field_;
};

// One listener callback, with every value that decides an outcome.
struct Heard {
  bool begin;
  NodeId at;
  std::uint64_t uid;
  NodeId from;
  std::uint64_t rx_bits;  // begin only
  std::int64_t end_ns;    // begin only
  bool phy_ok;            // end only
  bool operator==(const Heard&) const = default;
};

struct RecordingListener : ChannelListener {
  NodeId self = 0;
  std::vector<Heard>* log = nullptr;
  void on_frame_begin(const Frame& f, NodeId from, double rx_power_w,
                      Time end) override {
    log->push_back({true, self, f.uid, from, bits(rx_power_w), end.nanos(),
                    false});
  }
  void on_frame_end(const Frame& f, NodeId from, bool phy_ok) override {
    log->push_back({false, self, f.uid, from, 0, 0, phy_ok});
  }
};

// 150 sensors at about 600 m² each plus a 0.5 W head in the centre, and
// 400 seeded frames of 20-120 bytes over 250 ms (several in flight at
// once).  Both channels run on their own simulator in lockstep.
// `row_cache_bytes` below a few rows leaves most senders' rows unkept, so
// frames in flight own their rows; `stats` receives the channel's counters
// at the end.
void expect_matches_dense_reference(
    const Propagation& prop, std::uint64_t seed,
    std::size_t row_cache_bytes = Channel::kRowCacheBytes,
    ChannelStats* stats = nullptr) {
  constexpr std::size_t kSensors = 150;
  const std::size_t n = kSensors + 1;
  Rng rng(seed);
  const Deployment dep = deploy_uniform_square(kSensors, 300.0, rng);
  std::vector<double> powers(n, RadioParams::kSensorTxPowerW);
  powers[kSensors] = RadioParams::kHeadTxPowerW;
  const RadioParams params;

  Simulator sim_new, sim_ref;
  Channel channel(sim_new, prop, params, dep.positions, powers,
                  row_cache_bytes);
  DenseReferenceChannel reference(sim_ref, prop, params, dep.positions,
                                  powers);

  // Every power and the audible lists equal the ordered-pair computation.
  std::size_t audible_total = 0;
  for (NodeId a = 0; a < n; ++a) {
    std::vector<NodeId> expect;
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      const double p =
          prop.rx_power_w(powers[a], dep.positions[a], dep.positions[b]);
      ASSERT_EQ(bits(channel.rx_power_w(a, b)), bits(p)) << a << "->" << b;
      if (p >= params.sensitivity_w) expect.push_back(b);
    }
    const auto got = channel.audible(a);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expect) << a;
    audible_total += expect.size();
  }
  EXPECT_LT(audible_total, n * (n - 1) / 2) << "lists should be sparse";

  std::vector<Heard> log_new, log_ref;
  std::vector<RecordingListener> rec_new(n), rec_ref(n);
  for (NodeId r = 0; r < n; ++r) {
    if (r % 7 == 3) continue;  // some nodes have no listener
    rec_new[r].self = rec_ref[r].self = r;
    rec_new[r].log = &log_new;
    rec_ref[r].log = &log_ref;
    channel.set_listener(r, &rec_new[r]);
    reference.set_listener(r, &rec_ref[r]);
  }

  struct Planned {
    Time at;
    NodeId from;
    std::uint32_t bytes;
    NodeId dst;
  };
  std::vector<Planned> plan;
  for (int i = 0; i < 400; ++i) {
    const auto from = static_cast<NodeId>(rng.below(n));
    const auto dst = rng.below(4) == 0 ? kBroadcast
                                       : static_cast<NodeId>(rng.below(n));
    plan.push_back({Time::us(static_cast<std::int64_t>(rng.below(250'000))),
                    from, static_cast<std::uint32_t>(20 + rng.below(101)),
                    dst});
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& x, const Planned& y) {
                     return x.at < y.at;
                   });
  std::vector<Time> busy_until(n, Time::zero());
  std::uint64_t uid = 0;
  for (const Planned& p : plan) {
    if (p.at <= busy_until[p.from]) continue;  // half-duplex
    busy_until[p.from] = p.at + channel.airtime(p.bytes);
    Frame f;
    f.uid = ++uid;
    f.src = p.from;
    f.dst = p.dst;
    f.size_bytes = p.bytes;
    sim_new.at(p.at, [&channel, p, f] { channel.transmit(p.from, f); });
    sim_ref.at(p.at, [&reference, p, f] { reference.transmit(p.from, f); });
  }
  ASSERT_GT(uid, 300u);

  for (;;) {
    const bool stepped = sim_new.step();
    ASSERT_EQ(stepped, sim_ref.step());
    if (!stepped) break;
    ASSERT_EQ(sim_new.now(), sim_ref.now());
    for (NodeId r = 0; r < n; ++r) {
      ASSERT_EQ(bits(channel.sensed_power_w(r)),
                bits(reference.sensed_power_w(r)))
          << "node " << r << " at " << sim_new.now().nanos() << " ns";
      ASSERT_EQ(channel.carrier_sensed(r), reference.carrier_sensed(r));
    }
  }
  EXPECT_EQ(channel.frames_transmitted(), uid);
  ASSERT_EQ(log_new.size(), log_ref.size());
  for (std::size_t i = 0; i < log_new.size(); ++i)
    ASSERT_EQ(log_new[i], log_ref[i]) << "callback " << i;
  // The load overlaps enough that SINR both passes and fails.
  const auto failed = std::count_if(log_new.begin(), log_new.end(),
                                    [](const Heard& h) {
                                      return !h.begin && !h.phy_ok;
                                    });
  const auto ends = std::count_if(log_new.begin(), log_new.end(),
                                  [](const Heard& h) { return !h.begin; });
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, ends);
  if (stats != nullptr) *stats = channel.stats();
}

TEST(ChannelDifferential, MatchesDenseReferenceUnderTwoRay) {
  TwoRayGround prop;
  expect_matches_dense_reference(prop, 17);
}

TEST(ChannelDifferential, MatchesDenseReferenceUnderShadowing) {
  LogDistanceShadowing prop(3.0, 6.0, 1.0, 914e6, 23);
  expect_matches_dense_reference(prop, 29);
}

TEST(ChannelDifferential, MatchesDenseReferenceUnderFreeSpace) {
  FreeSpace prop;
  expect_matches_dense_reference(prop, 31);
}

// Room for two of the 151 rows: the first two senders' rows are kept,
// every other frame computes its own row, several of them in flight at
// once.  A row freed or shared too early would break the field lockstep.
TEST(ChannelDifferential, MatchesDenseReferenceWithAFullRowBudget) {
  TwoRayGround prop;
  ChannelStats stats;
  expect_matches_dense_reference(prop, 37, 2 * 151 * sizeof(double), &stats);
  EXPECT_GT(stats.row_overflows, 100u);
  EXPECT_GT(stats.row_misses, stats.row_hits);
  EXPECT_EQ(stats.row_misses, stats.row_overflows + 2);
  EXPECT_EQ(stats.resident_power_bytes,
            stats.audible_entries * (sizeof(NodeId) + sizeof(double)) +
                2 * 151 * sizeof(double))
      << "only the two kept rows outlive their frames";
}

// range_bound_m is conservative for every model and both transmit powers:
// no pair at or above the sensitivity lies beyond it, coincident pairs and
// pairs exactly at the bound included.  The closed-form bounds are also
// tight to 1e-5.
TEST(Propagation, NoAudiblePairLiesBeyondTheRangeBound) {
  const double sensitivity = RadioParams{}.sensitivity_w;
  const FreeSpace free_space;
  const TwoRayGround two_ray;
  // System loss 4 makes the fourth-power branch outreach Friis for the
  // head, past the crossover.
  const TwoRayGround lossy(914e6, 1.5, 1.0, 1.0, 4.0);
  const LogDistanceShadowing shadowing(3.0, 6.0, 1.0, 914e6, 5);
  Rng rng(61);
  for (const Propagation* prop :
       {static_cast<const Propagation*>(&free_space),
        static_cast<const Propagation*>(&two_ray),
        static_cast<const Propagation*>(&lossy),
        static_cast<const Propagation*>(&shadowing)}) {
    for (const double power :
         {RadioParams::kSensorTxPowerW, RadioParams::kHeadTxPowerW}) {
      const double bound = prop->range_bound_m(power, sensitivity);
      ASSERT_GE(bound, 0.0);
      const auto expect_within = [&](Vec2 a, Vec2 b) {
        if (prop->rx_power_w(power, a, b) < sensitivity) return;
        EXPECT_LE(distance(a, b), bound)
            << "power " << power << " from (" << a.x << "," << a.y
            << ") to (" << b.x << "," << b.y << ")";
      };
      const double span = std::isfinite(bound) ? 2.0 * bound : 1000.0;
      for (int i = 0; i < 4000; ++i) {
        const Vec2 a{rng.uniform(-2000.0, 2000.0),
                     rng.uniform(-2000.0, 2000.0)};
        const double d = rng.uniform(0.0, span);
        const double theta = rng.uniform(0.0, 2.0 * M_PI);
        expect_within(a, a);
        expect_within(a, {a.x + d * std::cos(theta), a.y + d * std::sin(theta)});
      }
      if (!std::isfinite(bound)) continue;
      // Exactly at the bound and one ulp past it, on an axis, where
      // distance() is exact.
      for (const double d :
           {bound, std::nextafter(bound, 2.0 * bound), 1.0 + bound})
        for (const Vec2 b : {Vec2{d, 0.0}, Vec2{0.0, -d}})
          expect_within({0.0, 0.0}, b);
      EXPECT_GE(prop->rx_power_w(power, {0.0, 0.0},
                                 {bound * (1.0 - 1e-5), 0.0}),
                sensitivity)
          << "bound " << bound << " is loose";
    }
    EXPECT_TRUE(std::isinf(prop->range_bound_m(1.0, 0.0)));
  }
  EXPECT_TRUE(std::isinf(shadowing.range_bound_m(1.0, sensitivity)));
}

// The grid-built audible lists equal the all-pairs ordered scan on a
// layout with coincident nodes and pairs exactly at a sensor's bound, and
// link_ok answers from the stored powers as from the model, without
// calling it.
TEST(ChannelAudible, GridListsEqualTheAllPairsScan) {
  const FreeSpace free_space;
  const TwoRayGround two_ray;
  const RadioParams params;
  for (const Propagation* prop :
       {static_cast<const Propagation*>(&free_space),
        static_cast<const Propagation*>(&two_ray)}) {
    const double reach =
        prop->range_bound_m(RadioParams::kSensorTxPowerW, params.sensitivity_w);
    Rng rng(67);
    Deployment dep = deploy_uniform_square(120, 260.0, rng);
    dep.positions.pop_back();
    for (int k = 0; k < 4; ++k) dep.positions.push_back({10.0, -20.0});
    dep.positions.push_back({10.0 + reach, -20.0});
    dep.positions.push_back({10.0, -20.0 - reach});
    dep.positions.push_back({0.0, 0.0});  // head
    const std::size_t n = dep.positions.size();
    std::vector<double> powers(n, RadioParams::kSensorTxPowerW);
    powers[n - 1] = RadioParams::kHeadTxPowerW;
    Simulator sim;
    const Channel channel(sim, *prop, params, dep.positions, powers);
    for (NodeId a = 0; a < n; ++a) {
      std::vector<NodeId> want;
      for (NodeId b = 0; b < n; ++b)
        if (b != a && prop->rx_power_w(powers[a], dep.positions[a],
                                       dep.positions[b]) >=
                          params.sensitivity_w)
          want.push_back(b);
      const auto got = channel.audible(a);
      ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), want) << a;
    }
    EXPECT_GE(channel.audible(120).size(), 3u)
        << "coincident nodes hear each other";
    const std::uint64_t calls = channel.stats().propagation_calls;
    std::size_t links = 0;
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = 0; b < n; ++b) {
        const double p = prop->rx_power_w(powers[a], dep.positions[a],
                                          dep.positions[b]);
        const bool want = a != b && p >= params.sensitivity_w &&
                          p / params.noise_w >= params.sinr_threshold;
        ASSERT_EQ(channel.link_ok(a, b), want) << a << "->" << b;
        links += want ? 1 : 0;
      }
    EXPECT_GT(links, n);
    EXPECT_EQ(channel.stats().propagation_calls, calls);
  }
}

// audible_power_w hands back the model's power bit for bit for every
// audible pair (the reciprocal scan of the shadowing model included, with
// unequal sensor and head powers) and nullopt for every other receiver,
// without a model call.
TEST(ChannelAudible, StoredPowersAreTheModelsBitForBit) {
  const FreeSpace free_space;
  const TwoRayGround two_ray;
  const LogDistanceShadowing shadowing(3.0, 6.0, 1.0, 914e6, 11);
  const RadioParams params;
  for (const Propagation* prop :
       {static_cast<const Propagation*>(&free_space),
        static_cast<const Propagation*>(&two_ray),
        static_cast<const Propagation*>(&shadowing)}) {
    Rng rng(73);
    const Deployment dep = deploy_uniform_square(80, 300.0, rng);
    const std::size_t n = dep.positions.size();
    std::vector<double> powers(n, RadioParams::kSensorTxPowerW);
    powers[n - 1] = RadioParams::kHeadTxPowerW;
    Simulator sim;
    const Channel channel(sim, *prop, params, dep.positions, powers);
    const std::uint64_t calls = channel.stats().propagation_calls;
    std::size_t heard = 0;
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = 0; b < n; ++b) {
        const double p = prop->rx_power_w(powers[a], dep.positions[a],
                                          dep.positions[b]);
        const std::optional<double> stored = channel.audible_power_w(a, b);
        if (a != b && p >= params.sensitivity_w) {
          ASSERT_TRUE(stored) << a << "->" << b;
          ASSERT_EQ(bits(*stored), bits(p)) << a << "->" << b;
          ++heard;
        } else {
          ASSERT_FALSE(stored) << a << "->" << b;
        }
      }
    EXPECT_GT(heard, n);
    EXPECT_LT(heard, n * (n - 1));
    EXPECT_EQ(channel.stats().propagation_calls, calls);
  }
}

// A 20001-node two-ray channel at Fig. 7(a) density (1333 m² a sensor) and
// frames from 300 senders, a few in flight at a time.  A dense matrix
// would take 3.2 GB; the resident powers are the audible lists plus at
// most the row budget and the rows of the frames in flight.
TEST(ChannelScale, TwentyThousandNodesStoreAudibleListsAndABoundedRowCache) {
  constexpr std::size_t kSensors = 20000;
  constexpr std::size_t n = kSensors + 1;
  Rng rng(71);
  const Deployment dep = deploy_uniform_square(
      kSensors, std::sqrt(1333.0 * static_cast<double>(kSensors)), rng);
  std::vector<double> powers(n, RadioParams::kSensorTxPowerW);
  powers[kSensors] = RadioParams::kHeadTxPowerW;
  Simulator sim;
  const TwoRayGround prop;
  Channel channel(sim, prop, RadioParams{}, dep.positions, powers);
  const ChannelStats built = channel.stats();
  EXPECT_LT(built.audible_entries, 20 * n);
  EXPECT_LT(built.propagation_calls, 40 * n);

  // Senders: the head and every 66th sensor, twice over, one frame every
  // millisecond; an 80-byte frame lasts 3.2 ms.
  std::vector<NodeId> senders = {static_cast<NodeId>(kSensors)};
  for (NodeId s = 0; s < kSensors; s += 66) senders.push_back(s);
  ASSERT_GE(senders.size(), 300u);
  // The resident powers peak right after a frame starts.
  std::uint64_t uid = 0;
  std::uint64_t peak_bytes = 0;
  for (int round = 0; round < 2; ++round)
    for (const NodeId s : senders) {
      Frame f;
      f.uid = ++uid;
      f.src = s;
      f.size_bytes = 80;
      sim.at(Time::ms(static_cast<std::int64_t>(uid)),
             [&channel, &peak_bytes, s, f] {
               channel.transmit(s, f);
               peak_bytes = std::max(peak_bytes,
                                     channel.stats().resident_power_bytes);
             });
    }
  sim.run();
  EXPECT_EQ(channel.frames_transmitted(), uid);

  // The budget keeps the first senders' rows, which the second round
  // reads; the rest compute a row per frame.
  const std::size_t kept = Channel::kRowCacheBytes / (n * sizeof(double));
  ASSERT_LT(kept, senders.size());
  const ChannelStats st = channel.stats();
  EXPECT_EQ(st.row_hits, kept);
  EXPECT_EQ(st.row_overflows, 2 * (senders.size() - kept));
  const std::size_t lists =
      st.audible_entries * (sizeof(NodeId) + sizeof(double));
  EXPECT_EQ(st.resident_power_bytes, lists + kept * n * sizeof(double));
  const std::size_t in_flight_rows = 4 * n * sizeof(double);
  EXPECT_GT(peak_bytes, st.resident_power_bytes);
  EXPECT_LE(peak_bytes, lists + Channel::kRowCacheBytes + in_flight_rows);
  EXPECT_LT(peak_bytes, std::size_t{64} << 20);
}

TEST(Propagation, EveryModelIsBitwiseReciprocal) {
  FreeSpace free_space;
  TwoRayGround two_ray;
  LogDistanceShadowing shadowing(3.0, 6.0, 1.0, 914e6, 5);
  Rng rng(41);
  for (const Propagation* prop :
       {static_cast<const Propagation*>(&free_space),
        static_cast<const Propagation*>(&two_ray),
        static_cast<const Propagation*>(&shadowing)}) {
    for (int i = 0; i < 5000; ++i) {
      const Vec2 a{rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)};
      // Half the pairs are short, across the two-ray crossover and the
      // shadowing reference distance.
      const double reach = i % 2 == 0 ? 2.0 : 800.0;
      const Vec2 b{a.x + rng.uniform(-reach, reach),
                   a.y + rng.uniform(-reach, reach)};
      const double power = i % 3 == 0 ? RadioParams::kHeadTxPowerW
                                      : RadioParams::kSensorTxPowerW;
      ASSERT_EQ(bits(prop->rx_power_w(power, a, b)),
                bits(prop->rx_power_w(power, b, a)))
          << "pair " << i;
    }
  }
}

// link_topology against the all-pairs predicate scan, on a channel shared
// by three overlapping clusters (so audible lists cross cluster bounds).
TEST(LinkTopology, EqualsPredicateTopologyForEveryClusterOffset) {
  const TwoRayGround two_ray;
  const LogDistanceShadowing shadowing(3.0, 6.0, 1.0, 914e6, 9);
  for (const Propagation* prop :
       {static_cast<const Propagation*>(&two_ray),
        static_cast<const Propagation*>(&shadowing)}) {
    Rng rng(53);
    const std::vector<std::size_t> sizes = {40, 25, 60};
    std::vector<Vec2> positions;
    std::vector<double> powers;
    std::vector<NodeId> bases;
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      bases.push_back(static_cast<NodeId>(positions.size()));
      Deployment d = deploy_uniform_square(sizes[c], 160.0, rng);
      for (Vec2& p : d.positions) p.x += 120.0 * static_cast<double>(c);
      for (std::size_t s = 0; s < sizes[c]; ++s) {
        positions.push_back(d.positions[s]);
        powers.push_back(RadioParams::kSensorTxPowerW);
      }
      positions.push_back(d.head_pos());
      powers.push_back(RadioParams::kHeadTxPowerW);
    }
    Simulator sim;
    const Channel channel(sim, *prop, RadioParams{}, positions, powers);
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      const std::size_t n = sizes[c];
      const NodeId base = bases[c];
      const ClusterTopology want =
          topology_from_predicate(n, [&](NodeId a, NodeId b) {
            return channel.link_ok(base + a, base + b);
          });
      const ClusterTopology got = link_topology(channel, n, base);
      ASSERT_EQ(got.num_sensors(), n);
      EXPECT_GT(want.sensor_links().edge_count(), 0u);
      EXPECT_EQ(got.sensor_links().edge_count(),
                want.sensor_links().edge_count());
      for (NodeId s = 0; s < n; ++s) {
        EXPECT_EQ(got.sensor_links().neighbors(s),
                  want.sensor_links().neighbors(s))
            << "cluster " << c << " sensor " << s;
        EXPECT_EQ(got.head_hears(s), want.head_hears(s));
      }
    }
  }
}

}  // namespace
}  // namespace mhp
