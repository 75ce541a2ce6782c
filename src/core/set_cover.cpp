#include "core/set_cover.hpp"

#include <algorithm>
#include <limits>

#include "util/assertx.hpp"

namespace mhp {

SetCoverResult greedy_set_cover(std::size_t universe,
                                const std::vector<WeightedSubset>& subsets) {
  for (const auto& s : subsets) {
    MHP_REQUIRE(s.cost >= 0.0, "negative subset cost");
    for (std::size_t e : s.elements)
      MHP_REQUIRE(e < universe, "element out of range");
  }
  SetCoverResult result;
  std::vector<bool> covered(universe, false);
  std::size_t remaining = universe;

  // Each pick is the subset minimizing (ratio, -fresh, index), where
  // fresh counts the occurrences of still-uncovered elements and ratio is
  // cost / fresh: the cheapest covering cost, ties to the larger gain,
  // then the lower index.  Covering elements only shrinks fresh, so a
  // subset's key only grows (a cost-0 subset keeps ratio 0 while -fresh
  // grows).  A heap entry's key is therefore a lower bound of its current
  // key: refresh the top, and if it still beats the next entry it is the
  // exact minimum (lazy greedy) — the same pick a full scan would make.
  struct Entry {
    double ratio;
    std::size_t fresh;
    std::size_t index;
    bool operator<(const Entry& o) const {
      if (ratio != o.ratio) return ratio < o.ratio;
      if (fresh != o.fresh) return fresh > o.fresh;
      return index < o.index;
    }
  };
  const auto fresh_of = [&](std::size_t i) {
    std::size_t fresh = 0;
    for (std::size_t e : subsets[i].elements)
      if (!covered[e]) ++fresh;
    return fresh;
  };
  const auto entry_of = [&](std::size_t i, std::size_t fresh) {
    return Entry{subsets[i].cost / static_cast<double>(fresh), fresh, i};
  };
  // Min-heap: std heap functions keep the max, so order by "worse than".
  const auto worse = [](const Entry& a, const Entry& b) { return b < a; };
  std::vector<Entry> heap;
  heap.reserve(subsets.size());
  for (std::size_t i = 0; i < subsets.size(); ++i)
    if (const std::size_t fresh = fresh_of(i); fresh > 0)
      heap.push_back(entry_of(i, fresh));
  std::make_heap(heap.begin(), heap.end(), worse);

  while (remaining > 0) {
    if (heap.empty()) {
      result.covered = false;  // leftovers are uncoverable
      return result;
    }
    std::pop_heap(heap.begin(), heap.end(), worse);
    const std::size_t i = heap.back().index;
    heap.pop_back();
    const std::size_t fresh = fresh_of(i);
    if (fresh == 0) continue;  // everything it held is covered
    const Entry now = entry_of(i, fresh);
    if (!heap.empty() && heap.front() < now) {
      heap.push_back(now);  // stale: re-queue under its current key
      std::push_heap(heap.begin(), heap.end(), worse);
      continue;
    }
    result.chosen.push_back(i);
    result.total_cost += subsets[i].cost;
    for (std::size_t e : subsets[i].elements) {
      if (!covered[e]) {
        covered[e] = true;
        --remaining;
      }
    }
  }
  return result;
}

SetCoverResult exact_set_cover(std::size_t universe,
                               const std::vector<WeightedSubset>& subsets) {
  MHP_REQUIRE(subsets.size() <= 20, "exact cover capped at 20 subsets");
  MHP_REQUIRE(universe <= 63, "exact cover capped at 63 elements");
  const std::uint64_t full =
      universe == 0 ? 0 : (~std::uint64_t{0} >> (64 - universe));
  std::vector<std::uint64_t> mask(subsets.size(), 0);
  for (std::size_t i = 0; i < subsets.size(); ++i)
    for (std::size_t e : subsets[i].elements) mask[i] |= std::uint64_t{1} << e;

  SetCoverResult best;
  best.covered = false;
  best.total_cost = std::numeric_limits<double>::infinity();
  const std::uint32_t combos = 1u << subsets.size();
  for (std::uint32_t pick = 0; pick < combos; ++pick) {
    std::uint64_t cov = 0;
    double cost = 0.0;
    for (std::size_t i = 0; i < subsets.size(); ++i)
      if (pick & (1u << i)) {
        cov |= mask[i];
        cost += subsets[i].cost;
      }
    if (cov == full && cost < best.total_cost) {
      best.covered = true;
      best.total_cost = cost;
      best.chosen.clear();
      for (std::size_t i = 0; i < subsets.size(); ++i)
        if (pick & (1u << i)) best.chosen.push_back(i);
    }
  }
  if (!best.covered) best.total_cost = 0.0;
  return best;
}

}  // namespace mhp
