#include "core/optimal_scheduler.hpp"

#include <algorithm>

#include "core/greedy_scheduler.hpp"
#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

std::optional<OptimalResult> OptimalScheduler::solve(
    std::span<const PollingRequest> requests, std::size_t slot_budget) {
  MHP_SPAN("sched/optimal");
  MHP_REQUIRE(requests.size() <= 32, "optimal solver capped at 32 requests");
  requests_ = requests;
  best_slots_.clear();

  if (requests.empty()) return OptimalResult{Schedule{}, 0};

  // Seed the bound with the greedy solution (always valid).
  std::vector<std::vector<NodeId>> paths;
  paths.reserve(requests.size());
  for (const auto& r : requests) paths.push_back(r.path);
  const auto greedy = run_offline(oracle_, paths);
  best_ = greedy.all_delivered ? greedy.slots : SIZE_MAX;

  std::uint32_t pending = 0;
  for (std::size_t i = 0; i < requests.size(); ++i)
    pending |= 1u << i;
  std::vector<std::vector<ScheduledTx>> current;
  dfs(pending, {}, 0, current);

  if (best_ == SIZE_MAX || best_ > slot_budget) return std::nullopt;
  Schedule s;
  // Fall back to the greedy slots if DFS never improved on it but greedy
  // met the budget (best_slots_ empty means greedy was already optimal
  // and no strictly better schedule was recorded).
  s.slots = best_slots_.empty() ? greedy.schedule.slots : best_slots_;
  // Trim trailing empty slots.
  while (!s.slots.empty() && s.slots.back().empty()) s.slots.pop_back();
  return OptimalResult{std::move(s), best_};
}

std::size_t OptimalScheduler::remaining_hops(
    std::uint32_t pending, const std::vector<InFlight>& in_flight) const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < requests_.size(); ++i)
    if (pending & (1u << i)) total += requests_[i].hop_count();
  for (const auto& f : in_flight)
    total += requests_[f.request].hop_count() - f.next_hop;
  return total;
}

void OptimalScheduler::dfs(std::uint32_t pending,
                           std::vector<InFlight> in_flight, std::size_t slot,
                           std::vector<std::vector<ScheduledTx>>& current) {
  if (pending == 0 && in_flight.empty()) {
    if (slot < best_) {
      best_ = slot;
      best_slots_ = current;
    }
    return;
  }
  // Bound: every remaining hop needs slot capacity <= oracle order.
  const std::size_t rem = remaining_hops(pending, in_flight);
  const auto order = static_cast<std::size_t>(oracle_.order());
  std::size_t lb = slot + (rem + order - 1) / order;
  // A pending request also needs its full hop count from here.
  for (std::size_t i = 0; i < requests_.size(); ++i)
    if (pending & (1u << i))
      lb = std::max(lb, slot + requests_[i].hop_count());
  for (const auto& f : in_flight)
    lb = std::max(lb, slot + requests_[f.request].hop_count() - f.next_hop);
  if (lb >= best_) return;  // cannot strictly improve

  // The slot must carry every in-flight request's next hop (no delay).
  std::vector<ScheduledTx> base;
  base.reserve(in_flight.size());
  for (const auto& f : in_flight)
    base.push_back(ScheduledTx{requests_[f.request].hop(f.next_hop),
                               requests_[f.request].id, f.next_hop});

  // Enumerate subsets of pending requests to start now.  Iterate subsets
  // of the pending mask; reject those that break compatibility.
  std::vector<std::size_t> pending_ids;
  for (std::size_t i = 0; i < requests_.size(); ++i)
    if (pending & (1u << i)) pending_ids.push_back(i);

  const std::uint32_t subsets = 1u << pending_ids.size();
  for (std::uint32_t sub = 0; sub < subsets; ++sub) {
    // Starting nothing while nothing is in flight only wastes the slot.
    if (sub == 0 && in_flight.empty()) continue;
    std::vector<ScheduledTx> group = base;
    bool ok = true;
    for (std::size_t b = 0; b < pending_ids.size() && ok; ++b) {
      if (!(sub & (1u << b))) continue;
      const auto& r = requests_[pending_ids[b]];
      group.push_back(ScheduledTx{r.hop(0), r.id, 0});
      if (group.size() > order) ok = false;
    }
    if (!ok) continue;
    std::vector<Tx> txs;
    txs.reserve(group.size());
    for (const auto& g : group) txs.push_back(g.tx);
    // Distinct packets never share a transmission: the oracle judges the
    // *set* of concurrent transmissions, so duplicate Tx entries (one
    // radio, two frames, one slot) must be rejected here.
    for (std::size_t i = 0; i < txs.size() && ok; ++i)
      for (std::size_t j = i + 1; j < txs.size(); ++j)
        if (txs[i] == txs[j]) {
          ok = false;
          break;
        }
    if (!ok) continue;
    if (!group.empty() && !oracle_.compatible(txs)) continue;

    // Look ahead: started requests' *future* hops must also be compatible
    // with each other (they will share slots); checked recursively as the
    // DFS advances, so nothing extra here.
    std::uint32_t next_pending = pending;
    std::vector<InFlight> next_flight;
    for (const auto& f : in_flight)
      if (f.next_hop + 1 < requests_[f.request].hop_count())
        next_flight.push_back({f.request, f.next_hop + 1});
    for (std::size_t b = 0; b < pending_ids.size(); ++b) {
      if (!(sub & (1u << b))) continue;
      const std::size_t i = pending_ids[b];
      next_pending &= ~(1u << i);
      if (requests_[i].hop_count() > 1)
        next_flight.push_back({static_cast<std::uint32_t>(i), 1});
    }
    current.push_back(group);
    dfs(next_pending, std::move(next_flight), slot + 1, current);
    current.pop_back();
  }
}

}  // namespace mhp
