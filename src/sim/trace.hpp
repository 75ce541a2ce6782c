// Lightweight tracing: simulations record categorized entries into a
// bounded in-memory ring that tests inspect.  Long runs evict the oldest
// entries instead of growing without bound.  Disabled categories cost one
// branch.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace mhp {

enum class TraceCat : std::uint8_t {
  kProtocol,  // duty-cycle phases, polling messages
  kChannel,   // transmissions, receptions, losses
};

struct TraceEntry {
  Time when;
  TraceCat cat;
  std::string text;
};

class Trace {
 public:
  /// Ring capacity unless set_max_entries() overrides it.
  static constexpr std::size_t kDefaultMaxEntries = 1u << 20;

  /// All categories disabled by default (zero overhead unless asked for).
  void enable(TraceCat cat) { mask_ |= bit(cat); }
  void enable_all() { mask_ = ~0u; }
  bool enabled(TraceCat cat) const { return (mask_ & bit(cat)) != 0; }

  /// Cap the in-memory ring; recording beyond it evicts the oldest
  /// entries.  Requires n >= 1.
  void set_max_entries(std::size_t n);

  void record(Time when, TraceCat cat, std::string text);

  /// The ring's current contents, oldest first.
  const std::deque<TraceEntry>& entries() const { return entries_; }
  /// Entries evicted from the ring so far.
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Entries of one category, in order.
  std::vector<std::string> texts(TraceCat cat) const;

 private:
  static std::uint32_t bit(TraceCat cat) {
    return 1u << static_cast<std::uint8_t>(cat);
  }

  std::uint32_t mask_ = 0;
  std::size_t max_entries_ = kDefaultMaxEntries;
  std::uint64_t dropped_ = 0;
  std::deque<TraceEntry> entries_;
};

/// True if `trace` is attached and records `cat`.  Guard the building of
/// an entry's text with it, so a disabled category costs no string work.
inline bool tracing(const Trace* trace, TraceCat cat) {
  return trace != nullptr && trace->enabled(cat);
}

}  // namespace mhp
