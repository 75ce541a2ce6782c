// Interference knowledge: which groups of transmissions are compatible
// (contention-free when concurrent).
//
// Per §III-B the paper refuses both the protocol (disc) model and the
// power-law physical model: coverage and interference are *arbitrary*, and
// the cluster head learns them by testing groups of at most M transmissions
// (M = 2 or 3).  The scheduler therefore never asks about groups larger
// than M and treats unknown groups as incompatible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "radio/channel.hpp"
#include "util/geometry.hpp"

namespace mhp {

/// One single-hop transmission from→to.
struct Tx {
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  friend auto operator<=>(const Tx&, const Tx&) = default;
};

/// Canonical key for a transmission group (sorted, duplicate-free).
using TxGroup = std::vector<Tx>;
TxGroup normalize(std::span<const Tx> txs);

/// Structural feasibility every oracle enforces before its own answer:
/// distinct senders, no node both sending and receiving (half-duplex),
/// no receiver hearing two group members addressed to it.
bool structurally_valid(std::span<const Tx> txs);

class CompatibilityOracle {
 public:
  virtual ~CompatibilityOracle() = default;

  /// Largest group size the oracle has knowledge of.
  virtual int order() const = 0;

  /// True iff the group can run concurrently with every transmission
  /// received.  Groups larger than order() are conservatively incompatible.
  /// Virtual so decorators (CachedOracle) can intercept the whole query.
  virtual bool compatible(std::span<const Tx> txs) const;

 protected:
  /// Answer for a structurally valid, normalized group of size in
  /// [2, order()].  (Singletons are compatible by definition; the empty
  /// group trivially so.)
  virtual bool compatible_impl(const TxGroup& group) const = 0;
};

/// Table-driven oracle for tests and the NP-hardness reductions: compatible
/// pairs (and optionally larger groups) are listed explicitly; a group is
/// compatible iff every subset of size <= `subset_order` that must be
/// checked is present.  By default the table lists *pairs* and a group is
/// compatible iff all its pairs are (exactly the pairwise knowledge the
/// reductions in §III-C construct).
class ExplicitOracle : public CompatibilityOracle {
 public:
  explicit ExplicitOracle(int order = 2) : order_(order) {}

  int order() const override { return order_; }

  /// Declare an unordered pair of transmissions compatible.
  void allow_pair(Tx a, Tx b);

  /// Declare a whole group compatible (adds all its pairs too, so pairwise
  /// screening passes).
  void allow_group(std::span<const Tx> txs);

  /// Mark a specific group incompatible even though its pairs are allowed
  /// (models accumulated interference, Fig. 3).
  void forbid_group(std::span<const Tx> txs);

 protected:
  bool compatible_impl(const TxGroup& group) const override;

 private:
  int order_;
  std::set<TxGroup> pairs_;
  std::set<TxGroup> groups_;
  std::set<TxGroup> forbidden_;
};

/// Ground-truth oracle backed by the channel's SINR model: a group is
/// compatible iff every transmission in it decodes under the others'
/// summed interference.  Used as the "reality" the measured oracle probes.
class ChannelOracle : public CompatibilityOracle {
 public:
  ChannelOracle(const Channel& channel, int order)
      : channel_(channel), order_(order) {}

  int order() const override { return order_; }

 protected:
  bool compatible_impl(const TxGroup& group) const override;

 private:
  const Channel& channel_;
  int order_;
};

/// The head's measured knowledge (§V-E): the groups of at most M
/// transmissions drawn from a candidate universe (the transmissions the
/// relaying paths actually use) are what the head probes, and probing
/// cost (the number of such groups, probes()) is what sectoring reduces
/// (§IV).  The oracle charges that cost in closed form and asks `truth`
/// only for the groups the scheduler actually queries: a group with a
/// member outside the universe was never probed and is incompatible;
/// any other group gets `truth`'s verdict, which is what probing it would
/// have measured.  Every query runs one truth test (one SINR evaluation
/// for a ChannelOracle); memoizing repeated queries is CachedOracle's job.
///
/// Invariant: `truth` outlives the oracle and its verdicts do not change
/// while the oracle lives, so answering late equals probing up front.
/// ChannelOracle meets it: it reads only the audible powers and
/// Channel::rx_power_w, both fixed at construction (positions and tx
/// powers never change), never the live interference of frames in
/// flight.  Node mobility or fading (both parked) would break it.
class MeasuredOracle : public CompatibilityOracle {
 public:
  /// Takes the universe to probe; `truth` is asked lazily.
  MeasuredOracle(const CompatibilityOracle& truth,
                 std::span<const Tx> universe, int order);

  int order() const override { return order_; }

  /// Number of groups the head probes: probe_count(universe size, M).
  std::uint64_t probes() const {
    return probe_count(universe_.size(), order_);
  }
  /// The probed universe: distinct transmissions, sorted.
  std::span<const Tx> universe() const { return universe_; }

  /// The number of groups a full probe of a universe of `u` transmissions
  /// at order M would need (the paper's 1320-vs-85320 argument).
  static std::uint64_t probe_count(std::size_t universe_size, int order);

 protected:
  bool compatible_impl(const TxGroup& group) const override;

 private:
  const CompatibilityOracle& truth_;
  int order_;
  TxGroup universe_;  // sorted, duplicate-free
};

/// Protocol-model (disc) ground truth: a group is compatible iff every
/// receiver is strictly farther than `interference_range` from every other
/// group member's sender.  The paper refuses this model for the *protocol*
/// (§III-B) — it exists as a cheap geometric stand-in for benches and
/// property tests that need an O(k²) oracle at deployments far larger than
/// SINR evaluation can afford.  `positions[id]` must cover every node a
/// query names (a Deployment's positions vector works as-is).
class DiscModelOracle : public CompatibilityOracle {
 public:
  DiscModelOracle(std::vector<Vec2> positions, double interference_range,
                  int order)
      : positions_(std::move(positions)),
        range_(interference_range),
        order_(order) {}

  int order() const override { return order_; }

 protected:
  bool compatible_impl(const TxGroup& group) const override;

 private:
  std::vector<Vec2> positions_;
  double range_;
  int order_;
};

/// Memoizing decorator: caches normalized-group → verdict so repeated
/// queries (the greedy scheduler asks about the same slot groups every
/// planning pass) cost one hash lookup instead of the inner oracle's table
/// lookup or SINR evaluation.  Verdicts are identical to the inner
/// oracle's by construction — wrapping an oracle never changes behaviour,
/// only speed.  Not thread-safe; one instance per simulation, like every
/// other oracle.  The inner oracle must outlive the cache.
///
/// The memo is one open-addressing table (power-of-two capacity, linear
/// probing, load at most 1/2).  A slot stores the key's 64-bit hash, its
/// offset and length in a shared pool where all keys sit back to back,
/// and the verdict, so no memoized group costs a heap allocation of its
/// own.
class CachedOracle : public CompatibilityOracle {
 public:
  /// Opt-in pair screening and subset closure: before consulting the
  /// memo (or the inner oracle) for a group of three or more, check every
  /// pair of the group against the cache — a cached-incompatible pair
  /// proves the whole group incompatible without a new inner query.
  /// Symmetrically, when the inner oracle declares a larger group
  /// compatible, every pair inside it is seeded into the memo as
  /// compatible (subset closure), so first-plan pair queries hit.  Both
  /// directions are sound only for monotone oracles (a subset of a
  /// compatible group is compatible; a conflicting pair conflicts in
  /// every superset), which holds for SINR-style oracles and structural
  /// validity but NOT for, e.g., an ExplicitOracle that forbids a pair
  /// outright while allowing its supersets — hence opt-in.  Screen
  /// rejections count as hits (they are answered from cached data alone).
  enum class PairScreen { kOff, kOn };

  explicit CachedOracle(const CompatibilityOracle& inner,
                        PairScreen screen = PairScreen::kOff)
      : inner_(inner), screen_(screen) {}

  int order() const override { return inner_.order(); }

  bool compatible(std::span<const Tx> txs) const override;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Hits answered by the pair screen (subset of hits()).
  std::uint64_t screened() const { return screened_; }
  /// Hits / total queries (0.0 before the first query).
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
  }
  std::size_t size() const { return size_; }

 protected:
  /// Unreached (compatible() is fully overridden); delegates for safety.
  bool compatible_impl(const TxGroup& group) const override;

 private:
  /// One memo entry; `length` 0 marks an empty slot (keys have at least
  /// two members).
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t offset = 0;  // first member's index in pool_
    std::uint32_t length : 31 = 0;
    std::uint32_t verdict : 1 = 0;
  };

  /// The slot holding `key`, or the empty slot where it belongs.
  std::size_t find_slot(std::span<const Tx> key, std::uint64_t hash) const;
  /// Memoizes key → verdict unless the key is already present.
  void remember(std::span<const Tx> key, std::uint64_t hash,
                bool verdict) const;

  const CompatibilityOracle& inner_;
  PairScreen screen_ = PairScreen::kOff;
  mutable std::vector<Slot> slots_ = std::vector<Slot>(16);
  mutable std::vector<Tx> pool_;
  mutable std::size_t size_ = 0;
  mutable TxGroup norm_scratch_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t screened_ = 0;
};

/// Cache-effectiveness roll-up reports carry: one CachedOracle's tallies,
/// or several summed — the live cache plus every wrapper retired across
/// fault replans (multi-cluster stacks additionally sum over clusters).
struct OracleCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t screened = 0;  // subset of hits: pair-screen rejections
  std::uint64_t entries = 0;   // distinct memoized groups
  void add(const CachedOracle& cache) {
    hits += cache.hits();
    misses += cache.misses();
    screened += cache.screened();
    entries += cache.size();
  }
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// The set of single-hop transmissions used by a set of relaying paths —
/// the natural probe universe.
std::vector<Tx> transmissions_of_paths(
    const std::vector<std::vector<NodeId>>& paths);

}  // namespace mhp
