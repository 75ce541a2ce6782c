// Lightweight tracing: simulations record categorized entries that tests
// can inspect and examples can print.  Disabled categories cost one branch.
//
// Two delivery paths exist: a bounded in-memory ring (the default; long
// runs evict the oldest entries instead of growing without bound) and
// pluggable sinks that observe every enabled entry as it is recorded —
// e.g. OstreamTraceSink streams them to a log so nothing is lost even
// when the ring wraps.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace mhp {

enum class TraceCat : std::uint8_t {
  kProtocol,  // duty-cycle phases, polling messages
  kChannel,   // transmissions, receptions, losses
  kEnergy,    // radio state changes
  kRouting,   // path computation
  kMac,       // baseline MAC events
};

const char* to_string(TraceCat cat);

struct TraceEntry {
  Time when;
  TraceCat cat;
  std::string text;
};

/// The one canonical text rendering — "time [cat] text\n" — used by both
/// Trace::print and OstreamTraceSink (the JSONL sink is the only other
/// format).
void format_trace_entry(std::ostream& os, const TraceEntry& entry);

/// Observes entries as they are recorded (enabled categories only).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_entry(const TraceEntry& entry) = 0;
};

/// Streams each entry to an ostream in the same format as Trace::print.
class OstreamTraceSink : public TraceSink {
 public:
  explicit OstreamTraceSink(std::ostream& os) : os_(os) {}
  void on_entry(const TraceEntry& entry) override;

 private:
  std::ostream& os_;
};

/// Streams each entry as one JSON object per line:
/// {"t_s":1.234,"cat":"protocol","text":"..."} — machine-readable trace
/// export for long runs (the ring stays bounded, the file keeps it all).
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& os) : os_(os) {}
  void on_entry(const TraceEntry& entry) override;

 private:
  std::ostream& os_;
};

class Trace {
 public:
  /// Ring capacity unless set_max_entries() overrides it.
  static constexpr std::size_t kDefaultMaxEntries = 1u << 20;

  /// All categories disabled by default (zero overhead unless asked for).
  void enable(TraceCat cat) { mask_ |= bit(cat); }
  void disable(TraceCat cat) { mask_ &= ~bit(cat); }
  void enable_all() { mask_ = ~0u; }
  bool enabled(TraceCat cat) const { return (mask_ & bit(cat)) != 0; }

  /// Cap the in-memory ring; recording beyond it evicts the oldest
  /// entries (sinks still see everything).  Requires n >= 1.
  void set_max_entries(std::size_t n);
  std::size_t max_entries() const { return max_entries_; }

  /// Register a non-owning sink notified of every enabled entry.
  void add_sink(TraceSink* sink);
  void remove_sink(TraceSink* sink);

  void record(Time when, TraceCat cat, std::string text);

  /// The ring's current contents, oldest first.
  const std::deque<TraceEntry>& entries() const { return entries_; }
  /// Entries evicted from the ring so far (still delivered to sinks).
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Entries of one category, in order.
  std::vector<std::string> texts(TraceCat cat) const;

  void print(std::ostream& os) const;

 private:
  static std::uint32_t bit(TraceCat cat) {
    return 1u << static_cast<std::uint8_t>(cat);
  }

  std::uint32_t mask_ = 0;
  std::size_t max_entries_ = kDefaultMaxEntries;
  std::uint64_t dropped_ = 0;
  std::deque<TraceEntry> entries_;
  std::vector<TraceSink*> sinks_;
};

/// True if `trace` is attached and records `cat`.  Guard the building of
/// an entry's text with it, so a disabled category costs no string work.
inline bool tracing(const Trace* trace, TraceCat cat) {
  return trace != nullptr && trace->enabled(cat);
}

}  // namespace mhp
