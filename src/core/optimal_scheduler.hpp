// Exact minimum-makespan polling schedules via branch and bound.
//
// The MHP problem is NP-hard (§III-C), so this solver is exponential and
// intended for small instances: validating the greedy heuristic's quality
// (ablation bench) and executing the Hamiltonian-path reduction.  Requests
// are capped at 32 (bitmask state).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/interference.hpp"
#include "core/schedule.hpp"

namespace mhp {

struct OptimalResult {
  Schedule schedule;
  std::size_t slots = 0;
};

class OptimalScheduler {
 public:
  /// `slot_budget`: abandon the search when even the best schedule would
  /// exceed it (returns nullopt).  Useful for decision-problem queries
  /// ("is there a schedule of length <= T?" — the TSRFP question).
  explicit OptimalScheduler(const CompatibilityOracle& oracle)
      : oracle_(oracle) {}

  std::optional<OptimalResult> solve(
      std::span<const PollingRequest> requests,
      std::size_t slot_budget = SIZE_MAX);

 private:
  struct InFlight {
    std::uint32_t request;
    std::size_t next_hop;  // hop index to run in the current slot
  };

  void dfs(std::uint32_t pending, std::vector<InFlight> in_flight,
           std::size_t slot, std::vector<std::vector<ScheduledTx>>& current);

  std::size_t remaining_hops(std::uint32_t pending,
                             const std::vector<InFlight>& in_flight) const;

  const CompatibilityOracle& oracle_;
  std::span<const PollingRequest> requests_;
  std::size_t best_ = SIZE_MAX;
  std::vector<std::vector<ScheduledTx>> best_slots_;
};

}  // namespace mhp
