// Greedy weighted set cover (§V-F uses it to pick acknowledgement paths).
//
// Classic ln(n)-approximation: repeatedly take the subset with the lowest
// covering cost (cost divided by newly covered elements).  Evaluated
// lazily from a heap; the picks are exactly those of a full rescan.
#pragma once

#include <cstdint>
#include <vector>

namespace mhp {

struct WeightedSubset {
  std::vector<std::size_t> elements;
  double cost = 0.0;
};

struct SetCoverResult {
  bool covered = true;              // false if elements remain uncoverable
  std::vector<std::size_t> chosen;  // indices into the subset list
  double total_cost = 0.0;
};

/// Cover elements 0..universe-1.  Subsets may overlap; elements no subset
/// contains leave `covered == false` (the chosen list still covers what it
/// can).
SetCoverResult greedy_set_cover(std::size_t universe,
                                const std::vector<WeightedSubset>& subsets);

/// Exact minimum-cost cover by exhaustive search (tests/ablations only;
/// capped at 20 subsets).
SetCoverResult exact_set_cover(std::size_t universe,
                               const std::vector<WeightedSubset>& subsets);

}  // namespace mhp
