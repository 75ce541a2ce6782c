#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/interference.hpp"
#include "radio/channel.hpp"
#include "sim/simulator.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

// ---------- normalize / structural validity ----------

TEST(TxGroup, NormalizeSortsAndDedupes) {
  const Tx a{2, 3}, b{0, 1};
  const TxGroup g = normalize(std::vector<Tx>{a, b, a});
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g[0], b);
  EXPECT_EQ(g[1], a);
}

TEST(StructuralValidity, AcceptsDisjointTransmissions) {
  EXPECT_TRUE(structurally_valid(std::vector<Tx>{{0, 1}, {2, 3}}));
}

TEST(StructuralValidity, RejectsHalfDuplexViolation) {
  // 1 receives in the first and sends in the second.
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{0, 1}, {1, 2}}));
}

TEST(StructuralValidity, RejectsDuplicateSender) {
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{0, 1}, {0, 2}}));
}

TEST(StructuralValidity, RejectsSharedReceiver) {
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{0, 2}, {1, 2}}));
}

TEST(StructuralValidity, RejectsSelfTransmission) {
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{1, 1}}));
}

// ---------- ExplicitOracle ----------

TEST(ExplicitOracle, SingletonsAlwaysCompatible) {
  ExplicitOracle oracle(2);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{{0, 1}}));
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{}));
}

TEST(ExplicitOracle, PairsRequireDeclaration) {
  ExplicitOracle oracle(2);
  const Tx a{0, 1}, b{2, 3};
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, b}));
  oracle.allow_pair(a, b);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b}));
  // Order does not matter.
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{b, a}));
}

TEST(ExplicitOracle, GroupsBeyondOrderIncompatible) {
  ExplicitOracle oracle(2);
  const Tx a{0, 1}, b{2, 3}, c{4, 5};
  oracle.allow_pair(a, b);
  oracle.allow_pair(a, c);
  oracle.allow_pair(b, c);
  // Pairwise fine but the oracle only knows pairs (order 2).
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, b, c}));
}

TEST(ExplicitOracle, TriplesPassPairwiseScreenAtOrder3) {
  ExplicitOracle oracle(3);
  const Tx a{0, 1}, b{2, 3}, c{4, 5};
  oracle.allow_pair(a, b);
  oracle.allow_pair(a, c);
  oracle.allow_pair(b, c);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b, c}));
}

TEST(ExplicitOracle, ForbidGroupModelsAccumulatedInterference) {
  // The Fig 3 situation: pairwise compatible, jointly forbidden.
  ExplicitOracle oracle(3);
  const Tx a{0, 1}, b{2, 3}, c{4, 5};
  oracle.allow_group(std::vector<Tx>{a, b});
  oracle.allow_group(std::vector<Tx>{a, c});
  oracle.allow_group(std::vector<Tx>{b, c});
  oracle.forbid_group(std::vector<Tx>{a, b, c});
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b}));
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, b, c}));
}

TEST(ExplicitOracle, StructuralViolationsOverrideTable) {
  ExplicitOracle oracle(2);
  const Tx a{0, 1}, bad{1, 2};
  oracle.allow_pair(a, bad);
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, bad}));
}

// ---------- ChannelOracle / MeasuredOracle ----------

class OracleChannelTest : public ::testing::Test {
 protected:
  OracleChannelTest() {
    // Line: n0 (30,0), n1 (60,0), n2 (90,0); head id 3 at origin.
    std::vector<Vec2> pos = {{30, 0}, {60, 0}, {90, 0}, {0, 0}};
    std::vector<double> pw = {RadioParams::kSensorTxPowerW,
                              RadioParams::kSensorTxPowerW,
                              RadioParams::kSensorTxPowerW,
                              RadioParams::kHeadTxPowerW};
    channel_ = std::make_unique<Channel>(sim_, prop_, RadioParams{}, pos, pw);
  }
  Simulator sim_;
  TwoRayGround prop_;
  std::unique_ptr<Channel> channel_;
};

TEST_F(OracleChannelTest, ChannelOracleMatchesConcurrentOutcome) {
  ChannelOracle oracle(*channel_, 2);
  // n2→n1 alone fine; together with n0→head the SINR at n1 collapses.
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{{2, 1}}));
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{{2, 1}, {0, 3}}));
}

TEST_F(OracleChannelTest, MeasuredOracleAgreesWithTruthOnUniverse) {
  ChannelOracle truth(*channel_, 2);
  const std::vector<Tx> universe = {{2, 1}, {1, 0}, {0, 3}};
  MeasuredOracle measured(truth, universe, 2);
  for (std::size_t i = 0; i < universe.size(); ++i)
    for (std::size_t j = i + 1; j < universe.size(); ++j) {
      const std::vector<Tx> g{universe[i], universe[j]};
      EXPECT_EQ(measured.compatible(g), truth.compatible(g));
    }
}

TEST_F(OracleChannelTest, MeasuredOracleUnknownGroupIncompatible) {
  ChannelOracle truth(*channel_, 2);
  MeasuredOracle measured(truth, std::vector<Tx>{{1, 0}}, 2);
  // {2,1} was never probed.
  EXPECT_FALSE(measured.compatible(std::vector<Tx>{{2, 1}, {1, 0}}));
  // Singletons never need probing.
  EXPECT_TRUE(measured.compatible(std::vector<Tx>{{2, 1}}));
}

TEST(MeasuredOracle, ProbeCountFormula) {
  // C(10,2) = 45; C(10,2)+C(10,3) = 45+120 = 165.
  EXPECT_EQ(MeasuredOracle::probe_count(10, 2), 45u);
  EXPECT_EQ(MeasuredOracle::probe_count(10, 3), 165u);
  // The paper's sectoring example: probing costs collapse with sector
  // size — an 80-transmission universe needs C(80,2)+C(80,3) = 85'320
  // groups, while 8 sectors of 10 need 8 × 165 = 1'320 (§IV).
  EXPECT_EQ(MeasuredOracle::probe_count(80, 3), 85'320u);
  EXPECT_EQ(8 * MeasuredOracle::probe_count(10, 3), 1'320u);
}

TEST_F(OracleChannelTest, ProbesCounterMatchesFormula) {
  ChannelOracle truth(*channel_, 3);
  const std::vector<Tx> universe = {{2, 1}, {1, 0}, {0, 3}, {1, 3}};
  MeasuredOracle measured(truth, universe, 3);
  EXPECT_EQ(measured.probes(), MeasuredOracle::probe_count(4, 3));
}

// ---------- MeasuredOracle rank index vs its truth ----------

/// Every subset of `universe` of size 2..order, in any order.
std::vector<TxGroup> all_groups(const std::vector<Tx>& universe, int order) {
  std::vector<TxGroup> out;
  const std::size_t u = universe.size();
  for (std::size_t a = 0; a < u; ++a)
    for (std::size_t b = a + 1; b < u; ++b) {
      out.push_back({universe[a], universe[b]});
      if (order < 3) continue;
      for (std::size_t c = b + 1; c < u; ++c)
        out.push_back({universe[a], universe[b], universe[c]});
    }
  return out;
}

/// Checks a MeasuredOracle over `universe` against `truth` on every
/// subset of size 2..order, plus groups it must refuse.
void expect_measured_matches(const CompatibilityOracle& truth,
                             std::vector<Tx> universe, int order,
                             Tx outside) {
  ASSERT_EQ(std::find(universe.begin(), universe.end(), outside),
            universe.end());
  // Listed unsorted and with a repeat: the oracle normalizes.
  universe.push_back(universe.front());
  const MeasuredOracle measured(truth, universe, order);
  universe.pop_back();
  EXPECT_EQ(measured.probes(),
            MeasuredOracle::probe_count(universe.size(), order));
  std::size_t compatible = 0, incompatible = 0;
  for (const TxGroup& g : all_groups(universe, order)) {
    const bool want = truth.compatible(g);
    ASSERT_EQ(measured.compatible(g), want);
    // Listing order does not matter.
    ASSERT_EQ(measured.compatible(TxGroup(g.rbegin(), g.rend())), want);
    ++(want ? compatible : incompatible);
  }
  EXPECT_GT(compatible, 0u);
  EXPECT_GT(incompatible, 0u);
  // A member outside the universe was never probed; a group beyond the
  // order is never known.
  for (std::size_t i = 0; i < universe.size(); ++i) {
    EXPECT_FALSE(measured.compatible(std::vector<Tx>{universe[i], outside}));
    EXPECT_FALSE(measured.compatible(std::vector<Tx>{outside, universe[i]}));
  }
  EXPECT_FALSE(measured.compatible(
      std::vector<Tx>(universe.begin(), universe.begin() + order + 1)));
}

/// A cluster-like deployment: `n` sensors in a square, head (id n) in the
/// middle; transmissions go to one of each sender's nearer nodes, so some
/// groups decode together and some collide.
struct ChannelField {
  explicit ChannelField(std::uint64_t seed, std::size_t n = 40,
                        double side = 300.0) {
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
      pos.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    pos.push_back({side / 2, side / 2});
    std::vector<double> pw(n, RadioParams::kSensorTxPowerW);
    pw.push_back(RadioParams::kHeadTxPowerW);
    channel = std::make_unique<Channel>(sim, prop, RadioParams{}, pos, pw);
  }
  static constexpr double kHop = 120.0;  // longest universe transmission
  std::vector<Tx> universe(Rng& rng, std::size_t size) const {
    std::vector<Tx> txs;
    const auto nodes = static_cast<NodeId>(pos.size());
    while (txs.size() < size) {
      const auto from = static_cast<NodeId>(rng.below(nodes));
      const auto to = static_cast<NodeId>(rng.below(nodes));
      if (from == to || distance(pos[from], pos[to]) > kHop) continue;
      const Tx t{from, to};
      if (std::find(txs.begin(), txs.end(), t) == txs.end()) txs.push_back(t);
    }
    return txs;
  }
  /// A transmission no universe() draws.
  Tx too_long() const {
    for (NodeId a = 0; a < pos.size(); ++a)
      for (NodeId b = 0; b < pos.size(); ++b)
        if (distance(pos[a], pos[b]) > kHop) return Tx{a, b};
    throw std::logic_error("field too small");
  }
  Simulator sim;
  TwoRayGround prop;
  std::vector<Vec2> pos;
  std::unique_ptr<Channel> channel;
};

TEST(MeasuredOracle, RankIndexAnswersLikeChannelTruth) {
  for (int order : {2, 3}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const ChannelField field(100 + seed);
      Rng rng(seed);
      const std::size_t u = 30 + rng.below(31);
      const ChannelOracle truth(*field.channel, order);
      expect_measured_matches(truth, field.universe(rng, u), order,
                              field.too_long());
    }
  }
}

TEST(MeasuredOracle, RankIndexAnswersLikeNonMonotoneExplicitTruth) {
  // Random pairs allowed, then (order 3) triples that are allowed while
  // one of their pairs is forbidden, and triples forbidden although all
  // their pairs are allowed: verdicts no monotone shortcut reproduces.
  for (int order : {2, 3}) {
    for (std::uint64_t seed : {7u, 8u}) {
      Rng rng(seed);
      const std::size_t u = 30 + rng.below(31);
      std::vector<Tx> universe;
      for (std::size_t i = 0; i < u; ++i)
        universe.push_back(Tx{static_cast<NodeId>(2 * i),
                              static_cast<NodeId>(2 * i + 1)});
      std::reverse(universe.begin(), universe.end());
      ExplicitOracle truth(order);
      for (std::size_t i = 0; i < u; ++i)
        for (std::size_t j = i + 1; j < u; ++j)
          if (rng.below(3) != 0) truth.allow_pair(universe[i], universe[j]);
      for (int g = 0; g < 40; ++g) {
        const Tx a = universe[rng.below(u)], b = universe[rng.below(u)],
                 c = universe[rng.below(u)];
        if (order < 3) {
          truth.forbid_group(std::vector<Tx>{a, b});
          continue;
        }
        const std::vector<Tx> triple{a, b, c};
        if (normalize(triple).size() != 3) continue;
        truth.allow_group(triple);
        if (g % 2 == 0) truth.forbid_group(std::vector<Tx>{a, b});
        else truth.forbid_group(triple);
      }
      expect_measured_matches(truth, universe, order, Tx{999, 1000});
    }
  }
}

// ---------- MeasuredOracle probes on demand ----------

/// Passes every query through to `inner` and counts it.
class CountingOracle : public CompatibilityOracle {
 public:
  explicit CountingOracle(const CompatibilityOracle& inner) : inner_(inner) {}

  int order() const override { return inner_.order(); }

  bool compatible(std::span<const Tx> txs) const override {
    ++calls_;
    return inner_.compatible(txs);
  }

  std::size_t calls() const { return calls_; }

 protected:
  bool compatible_impl(const TxGroup& group) const override {
    return inner_.compatible(group);
  }

 private:
  const CompatibilityOracle& inner_;
  mutable std::size_t calls_ = 0;
};

TEST(MeasuredOracle, AsksItsTruthOnlyForQueriedGroups) {
  // 2000 transmissions 2i → 2i+1 along a line of nodes 10 m apart under
  // a 15 m disc model: neighbouring transmissions collide, distant ones
  // do not.  Probing every group up front would take C(2000,2) +
  // C(2000,3) truth tests and a 166 MB verdict table.
  constexpr NodeId kTxs = 2000;
  std::vector<Vec2> pos;
  for (NodeId v = 0; v < 2 * kTxs; ++v)
    pos.push_back({10.0 * v, 0.0});
  const DiscModelOracle disc(pos, 15.0, 3);
  const CountingOracle truth(disc);
  std::vector<Tx> universe;
  for (NodeId i = 0; i < kTxs; ++i) universe.push_back(Tx{2 * i, 2 * i + 1});

  const MeasuredOracle measured(truth, universe, 3);
  EXPECT_EQ(truth.calls(), 0u);
  EXPECT_EQ(measured.probes(), MeasuredOracle::probe_count(kTxs, 3));

  // A member outside the universe: refused without asking the truth.
  EXPECT_FALSE(measured.compatible(std::vector<Tx>{universe[0], Tx{4, 7}}));
  EXPECT_EQ(truth.calls(), 0u);

  // Each in-universe query is one truth test, repeats included: the
  // oracle memoizes nothing (that is CachedOracle's job).
  const std::vector<TxGroup> queries = {
      {universe[0], universe[1000]},
      {universe[0], universe[1]},
      {universe[3], universe[500], universe[1999]},
      {universe[3], universe[4], universe[1999]},
      {universe[0], universe[1000]},
  };
  std::size_t calls = 0;
  for (const TxGroup& g : queries) {
    EXPECT_EQ(measured.compatible(g), disc.compatible(g));
    EXPECT_EQ(truth.calls(), ++calls);
  }
  EXPECT_TRUE(measured.compatible(queries[0]));
  EXPECT_FALSE(measured.compatible(queries[1]));
}

TEST(ChannelOracle, VerdictsIgnoreFramesInFlight) {
  // MeasuredOracle asks its truth during the run instead of at set-up,
  // which is only sound if the truth is static: the same groups must get
  // the same verdicts before any frame, while frames are on the air, and
  // after the run.
  ChannelField field(101);
  Rng rng(1);
  const std::vector<Tx> universe = field.universe(rng, 40);
  const ChannelOracle truth(*field.channel, 3);
  const std::vector<TxGroup> groups = all_groups(universe, 3);
  const auto verdicts = [&] {
    std::vector<bool> out;
    for (const TxGroup& g : groups) out.push_back(truth.compatible(g));
    return out;
  };
  const std::vector<bool> before = verdicts();
  ASSERT_GT(std::count(before.begin(), before.end(), true), 0);
  ASSERT_GT(std::count(before.begin(), before.end(), false), 0);

  // Every sender of the universe starts one frame now.
  std::vector<NodeId> senders;
  for (const Tx& t : universe)
    if (std::find(senders.begin(), senders.end(), t.from) == senders.end())
      senders.push_back(t.from);
  std::uint64_t uid = 0;
  for (const NodeId s : senders) {
    Frame f;
    f.uid = ++uid, f.src = s, f.size_bytes = 80;
    field.channel->transmit(s, std::move(f));
  }
  const Time airtime = field.channel->airtime(80);
  const NodeId head = static_cast<NodeId>(field.pos.size() - 1);
  bool checked = false;
  field.sim.at(Time::ns(airtime.nanos() / 2), [&] {
    EXPECT_GT(field.channel->sensed_power_w(head),
              field.channel->params().noise_w);
    EXPECT_EQ(verdicts(), before);
    checked = true;
  });
  field.sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(field.channel->frames_transmitted(), senders.size());
  EXPECT_EQ(verdicts(), before);
}

// ---------- ChannelOracle inline SINR vs concurrent_outcome ----------

/// Exposes the verdict for any group with distinct senders, including
/// half-duplex ones the public query screens out before the SINR test.
class ExposedChannelOracle : public ChannelOracle {
 public:
  using ChannelOracle::ChannelOracle;
  bool sinr_verdict(const TxGroup& g) const { return compatible_impl(g); }
};

TEST(ChannelOracle, InlineVerdictEqualsAllOfConcurrentOutcome) {
  // A sparse field (some links below sensitivity) of 12 sensors plus the
  // head: random groups of 1..4 distinct senders toward any node, the
  // head included, so receivers that also send (half-duplex) occur often.
  const ChannelField field(42, 12, 600.0);
  const auto nodes = static_cast<NodeId>(field.pos.size());
  const NodeId head = nodes - 1;
  const ExposedChannelOracle oracle(*field.channel, 4);
  Rng rng(43);
  std::size_t half_duplex = 0, weak = 0, to_head = 0, ok = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t size = 1 + rng.below(4);
    std::vector<Channel::TxRx> txrx;
    TxGroup group;
    while (group.size() < size) {
      const auto from = static_cast<NodeId>(rng.below(nodes));
      const auto to = static_cast<NodeId>(rng.below(nodes));
      if (from == to) continue;
      if (std::any_of(group.begin(), group.end(),
                      [&](const Tx& t) { return t.from == from; }))
        continue;
      group.push_back(Tx{from, to});
      txrx.push_back({from, to});
    }
    const auto outcome = field.channel->concurrent_outcome(txrx);
    const bool want = std::all_of(outcome.begin(), outcome.end(),
                                  [](bool b) { return b; });
    ASSERT_EQ(oracle.sinr_verdict(group), want) << "trial " << trial;
    // The public query adds the structural screen in front (and takes
    // singletons as compatible without asking).
    if (group.size() >= 2) {
      ASSERT_EQ(oracle.compatible(group), structurally_valid(group) && want)
          << "trial " << trial;
    }
    for (const Tx& t : group) {
      if (std::any_of(group.begin(), group.end(),
                      [&](const Tx& o) { return o.from == t.to; }))
        ++half_duplex;
      if (field.channel->rx_power_w(t.from, t.to) <
          field.channel->params().sensitivity_w)
        ++weak;
      if (t.to == head) ++to_head;
    }
    if (want) ++ok;
  }
  EXPECT_GT(half_duplex, 0u);
  EXPECT_GT(weak, 0u);
  EXPECT_GT(to_head, 0u);
  EXPECT_GT(ok, 0u);
}

TEST(ChannelOracle, InlineVerdictKeepsTheChannelsRangeChecks) {
  const ChannelField field(5, 4);
  const ExposedChannelOracle oracle(*field.channel, 3);
  EXPECT_THROW(oracle.sinr_verdict({Tx{0, 1}, Tx{2, 99}}), ContractViolation);
  EXPECT_THROW(oracle.sinr_verdict({Tx{0, 1}, Tx{2, 2}}), ContractViolation);
  EXPECT_THROW(oracle.sinr_verdict({Tx{0, 1}, Tx{0, 2}}), ContractViolation);
}

// The signal is read from the sender's audible list: a receiver outside
// it fails the sensitivity test and one inside it gets the stored model
// power, both with no propagation call (no frame has run, so no row is
// kept and every rx_power_w read would be one).
TEST(ChannelOracle, SignalComesFromTheAudibleListWithNoModelCall) {
  const ChannelField field(42, 12, 600.0);
  const auto nodes = static_cast<NodeId>(field.pos.size());
  const ExposedChannelOracle oracle(*field.channel, 2);
  std::size_t heard = 0, unheard = 0;
  for (NodeId from = 0; from < nodes; ++from)
    for (NodeId to = 0; to < nodes; ++to) {
      if (from == to) continue;
      const std::uint64_t calls = field.channel->stats().propagation_calls;
      const bool verdict = oracle.sinr_verdict({Tx{from, to}});
      ASSERT_EQ(field.channel->stats().propagation_calls, calls)
          << from << "->" << to;
      ASSERT_EQ(verdict, field.channel->concurrent_outcome({{from, to}})[0])
          << from << "->" << to;
      ++(field.channel->audible_power_w(from, to) ? heard : unheard);
    }
  EXPECT_GT(heard, 0u);
  EXPECT_GT(unheard, 0u);
  // Interference is still read through rx_power_w: once the first
  // receiver clears the sensitivity, the other sender costs a model call.
  NodeId from = 0;
  while (field.channel->audible(from).empty()) ++from;
  const NodeId to = field.channel->audible(from).front();
  NodeId other = 0;
  while (other == from || other == to) ++other;
  NodeId other_to = 0;
  while (other_to == from || other_to == other) ++other_to;
  const TxGroup pair = {Tx{from, to}, Tx{other, other_to}};
  const std::uint64_t calls = field.channel->stats().propagation_calls;
  static_cast<void>(oracle.sinr_verdict(pair));
  EXPECT_GE(field.channel->stats().propagation_calls, calls + 1);
}

TEST(TransmissionsOfPaths, ExtractsHops) {
  // {1,5} appears in both paths and is deduplicated.
  const std::vector<std::vector<NodeId>> paths = {{2, 1, 5}, {1, 5}};
  const auto txs = transmissions_of_paths(paths);
  ASSERT_EQ(txs.size(), 2u);
  EXPECT_TRUE(std::find(txs.begin(), txs.end(), Tx{2, 1}) != txs.end());
  EXPECT_TRUE(std::find(txs.begin(), txs.end(), Tx{1, 5}) != txs.end());
}

TEST(Oracle, DuplicateEntriesCollapseToTheSet) {
  // compatible() judges the *set* of concurrent transmissions: duplicate
  // entries normalize away before the structural checks, so a group with
  // a repeated Tx is judged as its deduplicated form.  (Structural
  // violations between *distinct* entries still reject.)
  ExplicitOracle oracle(2);
  const Tx a{0, 1};
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, a}));  // = {a}
  const Tx b{2, 3};
  oracle.allow_pair(a, b);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b, a}));  // = {a,b}
  // Same sender toward two receivers is still structurally invalid.
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, Tx{0, 2}}));
}

// ---------- DiscModelOracle ----------

TEST(DiscModelOracle, CollisionIffReceiverInsideInterferenceRange) {
  // Four nodes on a line at 0, 10, 200, 210.  Tx 0→1 and 2→3 are far
  // apart (compatible); 0→1 and 3→2 put receiver 2 at 190 m from sender
  // 0 — still fine — but with range 250 everything collides.
  const std::vector<Vec2> pos = {{0, 0}, {10, 0}, {200, 0}, {210, 0}};
  const DiscModelOracle far(pos, 60.0, 3);
  EXPECT_TRUE(far.compatible(std::vector<Tx>{{0, 1}, {2, 3}}));
  const DiscModelOracle wide(pos, 250.0, 3);
  EXPECT_FALSE(wide.compatible(std::vector<Tx>{{0, 1}, {2, 3}}));
}

// ---------- CachedOracle ----------

TEST(CachedOracle, VerdictsMatchInnerOracleOnEveryQuery) {
  Rng rng(11);
  std::vector<Vec2> pos;
  for (int i = 0; i < 12; ++i)
    pos.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  const DiscModelOracle truth(pos, 80.0, 3);
  const CachedOracle cached(truth);
  EXPECT_EQ(cached.order(), truth.order());
  // Two passes over random groups: the second is answered from the memo
  // and must agree verbatim, including structurally invalid and
  // oversized groups.
  std::vector<TxGroup> groups;
  for (int g = 0; g < 60; ++g) {
    TxGroup group;
    const int size = static_cast<int>(rng.uniform(0.0, 4.99));
    for (int t = 0; t < size; ++t)
      group.push_back(Tx{static_cast<NodeId>(rng.uniform(0.0, 11.99)),
                         static_cast<NodeId>(rng.uniform(0.0, 11.99))});
    groups.push_back(std::move(group));
  }
  for (int pass = 0; pass < 2; ++pass)
    for (const TxGroup& g : groups)
      EXPECT_EQ(cached.compatible(g), truth.compatible(g));
}

TEST(CachedOracle, CountsHitsAndMisses) {
  ExplicitOracle inner(2);
  const Tx a{0, 1}, b{2, 3};
  inner.allow_pair(a, b);
  const CachedOracle cached(inner);
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{a, b}));
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.hits(), 0u);
  // Same set in a different listed order is the same normalized key.
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{b, a}));
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.size(), 1u);
}

TEST(CachedOracle, TrivialGroupsBypassTheMemo) {
  ExplicitOracle inner(2);
  const CachedOracle cached(inner);
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{}));          // empty
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{{0, 1}}));    // singleton
  EXPECT_FALSE(cached.compatible(std::vector<Tx>{{2, 2}}));   // self loop
  EXPECT_FALSE(cached.compatible(                             // > order
      std::vector<Tx>{{0, 1}, {2, 3}, {4, 5}}));
  EXPECT_EQ(cached.size(), 0u);
  EXPECT_EQ(cached.hits() + cached.misses(), 0u);
}

// ---------- CachedOracle pair screen ----------

// Three link clusters on a line: 0→1 and 2→3 collide (20 m apart with an
// 50 m disc), while 4→5 and 6→7 are hundreds of meters clear of everyone.
std::vector<Vec2> screen_positions() {
  return {{0, 0},    {10, 0},   {20, 0},   {30, 0},
          {500, 0},  {510, 0},  {1000, 0}, {1010, 0}};
}

TEST(CachedOracle, PairScreenRejectsSupersetsOfCachedFalsePairs) {
  const DiscModelOracle truth(screen_positions(), 50.0, 3);
  const CachedOracle cached(truth, CachedOracle::PairScreen::kOn);
  const Tx bad_a{0, 1}, bad_b{2, 3}, clear_a{4, 5}, clear_b{6, 7};

  EXPECT_FALSE(cached.compatible(std::vector<Tx>{bad_a, bad_b}));
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.screened(), 0u);  // pairs themselves are never screened

  // A triple containing the cached-false pair is rejected by the screen
  // alone: a hit with no inner call and no new memo entry.  The verdict
  // matches the inner oracle (disc interference is monotone in the
  // transmitter set).
  const std::vector<Tx> triple{bad_a, bad_b, clear_a};
  EXPECT_FALSE(truth.compatible(triple));
  EXPECT_FALSE(cached.compatible(triple));
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.screened(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.size(), 1u);

  // Screened groups are not memoized, so the screen answers every repeat.
  EXPECT_FALSE(cached.compatible(triple));
  EXPECT_EQ(cached.screened(), 2u);

  // A triple with no cached-false pair inside goes to the inner oracle.
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{bad_a, clear_a, clear_b}));
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.screened(), 2u);
}

TEST(CachedOracle, PairScreenDefaultsOffAndHitRateAccountsScreens) {
  const DiscModelOracle truth(screen_positions(), 50.0, 3);
  const CachedOracle plain(truth);  // screen off: triples always miss
  EXPECT_DOUBLE_EQ(plain.hit_rate(), 0.0);  // defined before any query
  const Tx bad_a{0, 1}, bad_b{2, 3}, clear_a{4, 5};
  const std::vector<Tx> triple{bad_a, bad_b, clear_a};
  EXPECT_FALSE(plain.compatible(std::vector<Tx>{bad_a, bad_b}));
  EXPECT_FALSE(plain.compatible(triple));
  EXPECT_EQ(plain.screened(), 0u);
  EXPECT_EQ(plain.misses(), 2u);
  EXPECT_DOUBLE_EQ(plain.hit_rate(), 0.0);

  const CachedOracle screened(truth, CachedOracle::PairScreen::kOn);
  EXPECT_FALSE(screened.compatible(std::vector<Tx>{bad_a, bad_b}));
  EXPECT_FALSE(screened.compatible(triple));  // screen hit
  EXPECT_DOUBLE_EQ(screened.hit_rate(), 0.5);  // 1 hit / (1 hit + 1 miss)
}

TEST(CachedOracle, PairScreenLiftsHitRateOnGreedyStyleWorkload) {
  // The greedy scheduler probes a growing group's prefixes before the
  // full group; replay that shape — pair first, then its triple — over
  // random links and require the screen to convert would-be misses into
  // hits without changing a single verdict.
  Rng rng(17);
  std::vector<Vec2> pos;
  for (int i = 0; i < 24; ++i)
    pos.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  const DiscModelOracle truth(pos, 80.0, 3);
  const CachedOracle plain(truth);
  const CachedOracle screened(truth, CachedOracle::PairScreen::kOn);

  const auto random_tx = [&rng] {
    const auto from = static_cast<NodeId>(rng.uniform(0.0, 23.99));
    const auto to =
        (from + 1 + static_cast<NodeId>(rng.uniform(0.0, 22.99))) % 24;
    return Tx{from, to};
  };
  for (int i = 0; i < 300; ++i) {
    const Tx a = random_tx(), b = random_tx(), c = random_tx();
    for (const TxGroup& g :
         {std::vector<Tx>{a, b}, std::vector<Tx>{a, b, c}}) {
      const bool want = truth.compatible(g);
      EXPECT_EQ(plain.compatible(g), want);
      EXPECT_EQ(screened.compatible(g), want);
    }
  }
  EXPECT_GT(screened.screened(), 0u);
  EXPECT_GT(screened.hit_rate(), plain.hit_rate());
}

// ---------- CachedOracle against a reference memo ----------

/// The memo's contract restated over a std::map: normalize, answer
/// trivial and oversized groups without counting, screen pairs, look up,
/// and on a miss ask the inner oracle and close over pairs.
class ReferenceMemo {
 public:
  ReferenceMemo(const CompatibilityOracle& inner, bool screen)
      : inner_(inner), screen_(screen) {}

  bool compatible(std::span<const Tx> txs) {
    const TxGroup g = normalize(txs);
    if (g.size() <= 1) return g.empty() || g[0].from != g[0].to;
    if (static_cast<int>(g.size()) > inner_.order()) return false;
    if (screen_ && g.size() > 2)
      for (std::size_t i = 0; i + 1 < g.size(); ++i)
        for (std::size_t j = i + 1; j < g.size(); ++j) {
          const auto it = memo_.find(TxGroup{g[i], g[j]});
          if (it != memo_.end() && !it->second) {
            ++hits;
            ++screened;
            return false;
          }
        }
    if (const auto it = memo_.find(g); it != memo_.end()) {
      ++hits;
      return it->second;
    }
    ++misses;
    const bool ok = inner_.compatible(g);
    memo_.emplace(g, ok);
    if (screen_ && ok && g.size() > 2)
      for (std::size_t i = 0; i + 1 < g.size(); ++i)
        for (std::size_t j = i + 1; j < g.size(); ++j)
          memo_.try_emplace(TxGroup{g[i], g[j]}, true);
    return ok;
  }

  std::size_t size() const { return memo_.size(); }

  std::uint64_t hits = 0, misses = 0, screened = 0;

 private:
  const CompatibilityOracle& inner_;
  bool screen_;
  std::map<TxGroup, bool> memo_;
};

TEST(CachedOracle, MatchesReferenceMemoOnRandomStreams) {
  // Seeded query streams mixing group sizes 0..M+1, duplicate members,
  // self-loops, permuted replays of earlier groups and greedy-style
  // growth of an earlier group by one member.  Every query must leave
  // the verdict and all four tallies equal to the reference's.
  constexpr NodeId kNodes = 24;
  for (const int order : {2, 3, 5})
    for (const bool screen : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "order " << order << " screen " << screen);
      Rng rng(static_cast<std::uint64_t>(100 * order + screen));
      std::vector<Vec2> pos;
      for (NodeId i = 0; i < kNodes; ++i)
        pos.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
      const DiscModelOracle truth(pos, 80.0, order);
      const CachedOracle cached(
          truth, screen ? CachedOracle::PairScreen::kOn
                        : CachedOracle::PairScreen::kOff);
      ReferenceMemo reference(truth, screen);

      const auto random_tx = [&] {
        const auto from = static_cast<NodeId>(rng.below(kNodes));
        if (rng.bernoulli(0.05)) return Tx{from, from};  // self-loop
        return Tx{from, static_cast<NodeId>(
                            (from + 1 + rng.below(kNodes - 1)) % kNodes)};
      };
      std::vector<TxGroup> asked;
      for (int q = 0; q < 4000; ++q) {
        TxGroup g;
        const double shape = rng.uniform();
        if (!asked.empty() && shape < 0.35) {
          g = rng.pick(asked);  // replay, members permuted
          rng.shuffle(g);
        } else if (!asked.empty() && shape < 0.55) {
          g = rng.pick(asked);  // grow by one member
          g.push_back(random_tx());
        } else {
          const auto size = rng.below(static_cast<std::uint64_t>(order) + 2);
          for (std::uint64_t t = 0; t < size; ++t) g.push_back(random_tx());
        }
        if (!g.empty() && rng.bernoulli(0.1)) g.push_back(g.front());
        asked.push_back(g);

        const bool want = reference.compatible(g);
        ASSERT_EQ(cached.compatible(g), want) << "query " << q;
        ASSERT_EQ(cached.hits(), reference.hits) << "query " << q;
        ASSERT_EQ(cached.misses(), reference.misses) << "query " << q;
        ASSERT_EQ(cached.screened(), reference.screened) << "query " << q;
        ASSERT_EQ(cached.size(), reference.size()) << "query " << q;
      }
      // Far past the initial table, so the memo doubled several times
      // mid-stream; and both the memo and (where groups of three are
      // askable) the pair screen actually answered queries.
      EXPECT_GT(cached.size(), 200u);
      EXPECT_GT(cached.hits(), 0u);
      EXPECT_EQ(cached.screened() > 0, screen && order > 2);
    }
}

}  // namespace
}  // namespace mhp
