#include "sim/event_queue.hpp"

#include <algorithm>

namespace mhp {

std::uint32_t EventQueue::acquire_slot() {
  if (heap_.size() == heap_.capacity())
    heap_.reserve(std::max<std::size_t>(64, 2 * heap_.capacity()));
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  MHP_REQUIRE(gen_.size() < kSlotMask, "event arena full");
  const auto slot = static_cast<std::uint32_t>(gen_.size());
  if ((slot >> kChunkBits) == chunks_.size())
    chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
  heap_pos_.emplace_back();
  gen_.push_back(1);  // start at 1 so no valid EventId is ever 0
  if (free_.capacity() < gen_.size()) free_.reserve(gen_.capacity());
  return slot;
}

EventId EventQueue::link(Time when, std::uint32_t slot) noexcept {
  const Entry e{when, next_seq_++, slot};
  if (root_held_) {
    // The firing event's root goes to this entry: one sift instead of a
    // root removal plus an insertion.
    root_held_ = false;
    ++root_handoffs_;
    sift_down(0, e);
  } else {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, e);
  }
  return id_of(slot);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= gen_.size() || gen_[slot] != gen) return false;
  heap_remove(heap_pos_[slot]);
  ++gen_[slot];
  release_slot(slot);
  return true;
}

std::optional<Time> EventQueue::peek_time() const {
  if (!root_held_) {
    if (heap_.empty()) return std::nullopt;
    return heap_[0].when;
  }
  // The firing root is not pending; the earliest pending entry is one of
  // its children.
  const std::size_t end = std::min<std::size_t>(heap_.size(), 5);
  if (end <= 1) return std::nullopt;
  std::size_t best = 1;
  for (std::size_t c = 2; c < end; ++c)
    if (earlier(heap_[c], heap_[best])) best = c;
  return heap_[best].when;
}

bool EventQueue::fire_next(Time deadline, Time& now) {
  MHP_REQUIRE(!firing_, "an event callback cannot fire or pop events");
  if (heap_.empty() || deadline < heap_[0].when) return false;
  const std::uint32_t slot = heap_[0].slot;
  now = heap_[0].when;
  ++gen_[slot];  // the handle goes stale before the callback runs
  firing_ = root_held_ = true;
  struct Retire {
    EventQueue& q;
    std::uint32_t slot;
    ~Retire() { q.end_fire(slot); }
  } retire{*this, slot};
  fn_at(slot)();
  return true;
}

void EventQueue::end_fire(std::uint32_t slot) noexcept {
  if (root_held_) heap_remove(0);
  firing_ = root_held_ = false;
  release_slot(slot);
}

std::optional<EventQueue::Popped> EventQueue::pop() {
  MHP_REQUIRE(!firing_, "an event callback cannot fire or pop events");
  if (heap_.empty()) return std::nullopt;
  const std::uint32_t slot = heap_[0].slot;
  Popped out{heap_[0].when, id_of(slot), std::move(fn_at(slot))};
  heap_remove(0);
  ++gen_[slot];
  release_slot(slot);
  return out;
}

// Destroy the slot's callback, then free the slot: a push from the
// callback's destructor cannot land in the slot being torn down.
void EventQueue::release_slot(std::uint32_t slot) noexcept {
  fn_at(slot).reset();
  free_.push_back(slot);  // capacity reserved by acquire_slot
}

void EventQueue::sift_up(std::size_t pos, Entry e) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventQueue::sift_down(std::size_t pos, Entry e) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void EventQueue::heap_remove(std::size_t pos) noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry
  if (pos > 0 && earlier(last, heap_[(pos - 1) / 4]))
    sift_up(pos, last);
  else
    sift_down(pos, last);
}

}  // namespace mhp
