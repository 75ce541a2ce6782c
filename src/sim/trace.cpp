#include "sim/trace.hpp"

#include <utility>

#include "util/assertx.hpp"

namespace mhp {

void Trace::set_max_entries(std::size_t n) {
  MHP_REQUIRE(n >= 1, "trace ring needs room for at least one entry");
  max_entries_ = n;
  while (entries_.size() > max_entries_) {
    entries_.pop_front();
    ++dropped_;
  }
}

void Trace::record(Time when, TraceCat cat, std::string text) {
  if (!enabled(cat)) return;
  entries_.push_back({when, cat, std::move(text)});
  if (entries_.size() > max_entries_) {
    entries_.pop_front();
    ++dropped_;
  }
}

void Trace::clear() {
  entries_.clear();
  dropped_ = 0;
}

std::vector<std::string> Trace::texts(TraceCat cat) const {
  std::vector<std::string> out;
  for (const auto& e : entries_)
    if (e.cat == cat) out.push_back(e.text);
  return out;
}

}  // namespace mhp
