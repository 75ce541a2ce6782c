#include "core/interference.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "util/assertx.hpp"

namespace mhp {

TxGroup normalize(std::span<const Tx> txs) {
  TxGroup g(txs.begin(), txs.end());
  std::sort(g.begin(), g.end());
  g.erase(std::unique(g.begin(), g.end()), g.end());
  return g;
}

bool structurally_valid(std::span<const Tx> txs) {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (txs[i].from == txs[i].to) return false;
    for (std::size_t j = 0; j < txs.size(); ++j) {
      if (i == j) continue;
      if (txs[i].from == txs[j].from) return false;  // duplicate sender
      if (txs[i].from == txs[j].to) return false;    // half-duplex
      if (txs[i].to == txs[j].to) return false;      // receiver contention
    }
  }
  return true;
}

bool CompatibilityOracle::compatible(std::span<const Tx> txs) const {
  // Normalize first: a group listing the same transmission twice is the
  // same *set* of transmissions, not a duplicate-sender violation — the
  // structural screen runs on the deduped group.  (Callers that must
  // forbid double-booking a sender in one slot, like the greedy
  // scheduler, enforce that themselves.)
  const TxGroup g = normalize(txs);
  if (g.size() <= 1) return g.empty() || g[0].from != g[0].to;
  if (static_cast<int>(g.size()) > order()) return false;
  if (!structurally_valid(g)) return false;
  return compatible_impl(g);
}

void ExplicitOracle::allow_pair(Tx a, Tx b) {
  pairs_.insert(normalize(std::vector<Tx>{a, b}));
}

void ExplicitOracle::allow_group(std::span<const Tx> txs) {
  const TxGroup g = normalize(txs);
  MHP_REQUIRE(static_cast<int>(g.size()) <= order_,
              "group larger than oracle order");
  for (std::size_t i = 0; i < g.size(); ++i)
    for (std::size_t j = i + 1; j < g.size(); ++j)
      allow_pair(g[i], g[j]);
  if (g.size() > 2) groups_.insert(g);
}

void ExplicitOracle::forbid_group(std::span<const Tx> txs) {
  forbidden_.insert(normalize(txs));
}

bool ExplicitOracle::compatible_impl(const TxGroup& group) const {
  if (forbidden_.contains(group)) return false;
  if (group.size() == 2) return pairs_.contains(group);
  // Larger groups: explicitly listed, or all pairs allowed and nothing
  // forbidden (pairwise screen — exactly what a pair-only table knows).
  if (groups_.contains(group)) return true;
  for (std::size_t i = 0; i < group.size(); ++i)
    for (std::size_t j = i + 1; j < group.size(); ++j)
      if (!pairs_.contains(normalize(std::vector<Tx>{group[i], group[j]})))
        return false;
  return true;
}

bool ChannelOracle::compatible_impl(const TxGroup& group) const {
  // Channel::concurrent_outcome inlined without its scratch vectors: the
  // same range checks, and per receiver the same half-duplex, sensitivity
  // and SINR tests with the interference summed in the same order.  The
  // group is compatible iff every receiver decodes, so the first failing
  // one settles it.
  const std::size_t nodes = channel_.num_nodes();
  for (std::size_t i = 0; i < group.size(); ++i) {
    MHP_REQUIRE(group[i].from < nodes && group[i].to < nodes,
                "node out of range");
    MHP_REQUIRE(group[i].from != group[i].to, "self transmission");
    for (std::size_t j = i + 1; j < group.size(); ++j)
      MHP_REQUIRE(group[i].from != group[j].from, "duplicate sender");
  }
  const RadioParams& params = channel_.params();
  for (const Tx& t : group) {
    for (const Tx& other : group)
      if (other.from == t.to) return false;  // half-duplex
    // Only an audible receiver clears the sensitivity, and its list holds
    // the model's power: no propagation call for the signal.
    const std::optional<double> heard = channel_.audible_power_w(t.from, t.to);
    if (!heard) return false;
    const double signal = *heard;
    double interference = 0.0;
    for (const Tx& other : group)
      if (&other != &t) interference += channel_.rx_power_w(other.from, t.to);
    if (!(signal / (params.noise_w + interference) >= params.sinr_threshold))
      return false;
  }
  return true;
}

namespace {

/// C(n, k), with exact intermediate divisibility.
std::uint64_t binomial(std::uint64_t n, std::size_t k) {
  if (k > n) return 0;
  std::uint64_t c = 1;
  for (std::size_t i = 0; i < k; ++i) c = c * (n - i) / (i + 1);
  return c;
}

}  // namespace

MeasuredOracle::MeasuredOracle(const CompatibilityOracle& truth,
                               std::span<const Tx> universe, int order)
    : truth_(truth), order_(order), universe_(normalize(universe)) {
  MHP_REQUIRE(order >= 1, "order must be at least 1");
}

bool MeasuredOracle::compatible_impl(const TxGroup& group) const {
  // A member outside the universe (so also any group larger than it)
  // was never probed.
  auto at = universe_.begin();
  for (const Tx& t : group) {
    // The group is sorted, so each member lies past the previous one.
    at = std::lower_bound(at, universe_.end(), t);
    if (at == universe_.end() || *at != t) return false;
    ++at;
  }
  return truth_.compatible(group);
}

bool DiscModelOracle::compatible_impl(const TxGroup& group) const {
  for (std::size_t i = 0; i < group.size(); ++i)
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (i == j) continue;
      if (distance(positions_.at(group[i].to),
                   positions_.at(group[j].from)) <= range_)
        return false;  // receiver i hears sender j: collision
    }
  return true;
}

namespace {

/// Hash of a normalized group: each member folded in as one 64-bit word,
/// then a murmur3 finalizer so the low bits the table masks with are
/// well mixed.
std::uint64_t group_hash(std::span<const Tx> g) {
  std::uint64_t h = g.size();
  for (const Tx& t : g) {
    h ^= (std::uint64_t{t.from} << 32) | t.to;
    h *= 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::size_t CachedOracle::find_slot(std::span<const Tx> key,
                                    std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.length == 0) return i;
    if (s.hash == hash && s.length == key.size() &&
        std::equal(key.begin(), key.end(), pool_.begin() + s.offset))
      return i;
  }
}

void CachedOracle::remember(std::span<const Tx> key, std::uint64_t hash,
                            bool verdict) const {
  if (2 * (size_ + 1) > slots_.size()) {
    // Double the table; stored hashes re-place every entry without
    // touching the key pool.
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.length == 0) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].length != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }
  Slot& s = slots_[find_slot(key, hash)];
  if (s.length != 0) return;
  // Offsets and lengths are stored in 32 and 31 bits.
  MHP_REQUIRE(pool_.size() + key.size() < (std::size_t{1} << 31),
              "oracle memo key pool full");
  s.hash = hash;
  s.offset = static_cast<std::uint32_t>(pool_.size());
  s.length = static_cast<std::uint32_t>(key.size());
  s.verdict = verdict;
  pool_.insert(pool_.end(), key.begin(), key.end());
  ++size_;
}

bool CachedOracle::compatible(std::span<const Tx> txs) const {
  // Mirror the base class's trivial-group handling so cached and uncached
  // answers agree on every input; only non-trivial groups hit the memo.
  // The scheduler asks about a group per hop per candidate per slot, so
  // normalization runs in a reusable scratch buffer: the key is copied
  // into the pool only on a miss.
  TxGroup& g = norm_scratch_;
  g.assign(txs.begin(), txs.end());
  std::sort(g.begin(), g.end());
  g.erase(std::unique(g.begin(), g.end()), g.end());
  if (g.size() <= 1) return g.empty() || g[0].from != g[0].to;
  if (static_cast<int>(g.size()) > order()) return false;
  if (screen_ == PairScreen::kOn && g.size() > 2) {
    // A pair already known incompatible dooms every group containing it
    // (monotone oracles only; see the header).  `g` is sorted/unique, so
    // each {g[i], g[j]} with i<j is itself a normalized group.
    for (std::size_t i = 0; i + 1 < g.size(); ++i)
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        const Tx pair[2] = {g[i], g[j]};
        const Slot& s = slots_[find_slot(pair, group_hash(pair))];
        if (s.length != 0 && !s.verdict) {
          ++hits_;
          ++screened_;
          return false;
        }
      }
  }
  const std::uint64_t hash = group_hash(g);
  if (const Slot& s = slots_[find_slot(g, hash)]; s.length != 0) {
    ++hits_;
    return s.verdict;
  }
  ++misses_;
  const bool ok = inner_.compatible(g);
  remember(g, hash, ok);
  if (screen_ == PairScreen::kOn && ok && g.size() > 2) {
    // Subset closure (monotone oracles only, like the screen): a
    // compatible group proves every pair inside it compatible, so seed
    // those pairs now — the scheduler's first planning pass asks about
    // pairs before it grows them into triples, and this turns such
    // queries into hits without an inner-oracle probe.
    for (std::size_t i = 0; i + 1 < g.size(); ++i)
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        const Tx pair[2] = {g[i], g[j]};
        remember(pair, group_hash(pair), true);
      }
  }
  return ok;
}

bool CachedOracle::compatible_impl(const TxGroup& group) const {
  return inner_.compatible(group);
}

std::uint64_t MeasuredOracle::probe_count(std::size_t universe_size,
                                          int order) {
  std::uint64_t total = 0;
  for (int k = 2; k <= order; ++k)
    total += binomial(universe_size, static_cast<std::size_t>(k));
  return total;
}

std::vector<Tx> transmissions_of_paths(
    const std::vector<std::vector<NodeId>>& paths) {
  std::vector<Tx> txs;
  for (const auto& path : paths)
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      txs.push_back(Tx{path[i], path[i + 1]});
  return normalize(txs);
}

}  // namespace mhp
