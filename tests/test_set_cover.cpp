#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/set_cover.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

bool covers(std::size_t universe, const std::vector<WeightedSubset>& subsets,
            const SetCoverResult& r) {
  std::vector<bool> got(universe, false);
  for (std::size_t i : r.chosen)
    for (std::size_t e : subsets[i].elements) got[e] = true;
  for (bool b : got)
    if (!b) return false;
  return true;
}

TEST(GreedyCover, CoversSimpleInstance) {
  const std::vector<WeightedSubset> subsets = {
      {{0, 1, 2}, 3.0}, {{2, 3}, 1.0}, {{3, 4}, 1.0}, {{0, 4}, 1.0}};
  const auto r = greedy_set_cover(5, subsets);
  EXPECT_TRUE(r.covered);
  EXPECT_TRUE(covers(5, subsets, r));
}

TEST(GreedyCover, PrefersCheapPerElement) {
  // One big costly subset vs many cheap singletons: covering cost picks
  // the big one when it is cheaper per element.
  const std::vector<WeightedSubset> subsets = {
      {{0, 1, 2, 3}, 2.0},  // 0.5 per element
      {{0}, 1.0},
      {{1}, 1.0},
      {{2}, 1.0},
      {{3}, 1.0}};
  const auto r = greedy_set_cover(4, subsets);
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], 0u);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
}

TEST(GreedyCover, ReportsUncoverable) {
  const std::vector<WeightedSubset> subsets = {{{0}, 1.0}};
  const auto r = greedy_set_cover(2, subsets);
  EXPECT_FALSE(r.covered);
}

TEST(GreedyCover, EmptyUniverseTrivial) {
  const auto r = greedy_set_cover(0, {});
  EXPECT_TRUE(r.covered);
  EXPECT_TRUE(r.chosen.empty());
}

TEST(GreedyCover, ZeroCostSubsetsTakenFreely) {
  const std::vector<WeightedSubset> subsets = {{{0, 1}, 0.0}, {{1}, 5.0}};
  const auto r = greedy_set_cover(2, subsets);
  EXPECT_TRUE(r.covered);
  EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
}

TEST(ExactCover, FindsOptimum) {
  const std::vector<WeightedSubset> subsets = {
      {{0, 1}, 2.0}, {{1, 2}, 2.0}, {{0, 1, 2}, 3.5}, {{2}, 0.5}};
  const auto r = exact_set_cover(3, subsets);
  EXPECT_TRUE(r.covered);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.5);  // {0,1} + {2}
}

TEST(ExactCover, Uncoverable) {
  const auto r = exact_set_cover(2, {{{0}, 1.0}});
  EXPECT_FALSE(r.covered);
}

class GreedyVsExact : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsExact, ApproximationWithinHarmonicBound) {
  Rng rng(7000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t universe = 4 + rng.below(8);
  const std::size_t count = 4 + rng.below(8);
  std::vector<WeightedSubset> subsets(count);
  for (auto& s : subsets) {
    const std::size_t size = 1 + rng.below(universe);
    for (std::size_t k = 0; k < size; ++k)
      s.elements.push_back(rng.below(universe));
    s.cost = 1.0 + rng.uniform(0.0, 5.0);
  }
  // Ensure coverability: one subset with everything, expensive.
  WeightedSubset all;
  for (std::size_t e = 0; e < universe; ++e) all.elements.push_back(e);
  all.cost = 20.0;
  subsets.push_back(all);

  const auto greedy = greedy_set_cover(universe, subsets);
  const auto exact = exact_set_cover(universe, subsets);
  ASSERT_TRUE(greedy.covered);
  ASSERT_TRUE(exact.covered);
  EXPECT_TRUE(covers(universe, subsets, greedy));
  // H(n) approximation guarantee.
  double harmonic = 0.0;
  for (std::size_t k = 1; k <= universe; ++k)
    harmonic += 1.0 / static_cast<double>(k);
  EXPECT_LE(greedy.total_cost, exact.total_cost * harmonic + 1e-9);
  EXPECT_GE(greedy.total_cost, exact.total_cost - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsExact, ::testing::Range(0, 25));

// Ratio ties the full rescan met, by whether the gains were equal too.
struct TieCounts {
  std::size_t equal_fresh = 0;
  std::size_t unequal_fresh = 0;
};

// The full-rescan greedy the lazy heap version must reproduce pick for
// pick: every round scans all unused subsets for the lowest
// (cost / fresh, -fresh, index).
SetCoverResult linear_scan_cover(std::size_t universe,
                                 const std::vector<WeightedSubset>& subsets,
                                 TieCounts* ties = nullptr) {
  SetCoverResult result;
  std::vector<bool> covered(universe, false);
  std::size_t remaining = universe;
  std::vector<bool> used(subsets.size(), false);
  while (remaining > 0) {
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best = subsets.size();
    std::size_t best_new = 0;
    for (std::size_t i = 0; i < subsets.size(); ++i) {
      if (used[i]) continue;
      std::size_t fresh = 0;
      for (std::size_t e : subsets[i].elements)
        if (!covered[e]) ++fresh;
      if (fresh == 0) continue;
      const double ratio = subsets[i].cost / static_cast<double>(fresh);
      if (ties && ratio == best_ratio && best != subsets.size())
        ++(fresh == best_new ? ties->equal_fresh : ties->unequal_fresh);
      if (ratio < best_ratio || (ratio == best_ratio && fresh > best_new)) {
        best_ratio = ratio;
        best = i;
        best_new = fresh;
      }
    }
    if (best == subsets.size()) {
      result.covered = false;
      return result;
    }
    used[best] = true;
    result.chosen.push_back(best);
    result.total_cost += subsets[best].cost;
    for (std::size_t e : subsets[best].elements) {
      if (!covered[e]) {
        covered[e] = true;
        --remaining;
      }
    }
  }
  return result;
}

TEST(GreedyCover, LazyHeapMatchesLinearScanOnRandomInstances) {
  // Costs from a small palette so that ratios tie often: 1/1 vs 2/2 (equal
  // ratio, unequal fresh), two 1/1 subsets (equal ratio and fresh), and
  // cost-0 subsets.  Elements repeat inside a subset, and some elements
  // lie in no subset (uncoverable instances).  An infinite cost is a
  // legal input too.
  const double palette[] = {0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 0.1, 0.3,
                            std::numeric_limits<double>::infinity()};
  Rng rng(20260);
  TieCounts ties;
  std::size_t zero_cost = 0, repeated = 0, uncoverable = 0;
  for (int instance = 0; instance < 2000; ++instance) {
    const std::size_t universe = rng.below(25);
    const std::size_t count = rng.below(30);
    // Elements drawn from a range that may fall short of the universe.
    const std::size_t reach =
        universe == 0 ? 0 : universe - (rng.below(4) == 0 ? 1 : 0);
    std::vector<WeightedSubset> subsets(count);
    for (auto& s : subsets) {
      const std::size_t size = reach == 0 ? 0 : rng.below(8);
      for (std::size_t k = 0; k < size; ++k) {
        const std::size_t e = rng.below(reach);
        if (std::find(s.elements.begin(), s.elements.end(), e) !=
            s.elements.end())
          ++repeated;
        s.elements.push_back(e);
      }
      s.cost = palette[rng.below(rng.below(50) == 0 ? 11 : 10)];
      if (s.cost == 0.0) ++zero_cost;
    }
    const auto lazy = greedy_set_cover(universe, subsets);
    const auto scan = linear_scan_cover(universe, subsets, &ties);
    ASSERT_EQ(lazy.covered, scan.covered) << "instance " << instance;
    ASSERT_EQ(lazy.chosen, scan.chosen) << "instance " << instance;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(lazy.total_cost),
              std::bit_cast<std::uint64_t>(scan.total_cost))
        << "instance " << instance;
    if (!scan.covered) ++uncoverable;
  }
  // The generator reaches the cases it is meant to cover.
  EXPECT_GT(ties.equal_fresh, 0u);
  EXPECT_GT(ties.unequal_fresh, 0u);
  EXPECT_GT(zero_cost, 0u);
  EXPECT_GT(repeated, 0u);
  EXPECT_GT(uncoverable, 0u);
}

TEST(GreedyCover, EqualRatioPrefersLargerGainThenLowerIndex) {
  // {0} at 1 and {1,2} at 2 tie on ratio 1: the larger gain goes first.
  // {3} at 1 and {4} at 1 tie on ratio and gain: the lower index first.
  const std::vector<WeightedSubset> subsets = {
      {{0}, 1.0}, {{1, 2}, 2.0}, {{4}, 1.0}, {{3}, 1.0}};
  const auto r = greedy_set_cover(5, subsets);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{1, 0, 2, 3}));
  EXPECT_EQ(r.chosen, linear_scan_cover(5, subsets).chosen);
}

TEST(GreedyCover, RejectsBadInputs) {
  EXPECT_THROW(greedy_set_cover(2, {{{5}, 1.0}}), ContractViolation);
  EXPECT_THROW(greedy_set_cover(2, {{{0}, -1.0}}), ContractViolation);
}

}  // namespace
}  // namespace mhp
