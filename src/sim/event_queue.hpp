// Pending-event set for the discrete-event kernel.
//
// Heap entries.  Events are ordered by a flat 4-ary min-heap of
// Entry{when, seq, slot}: a comparison reads only the heap array.  `seq` is
// a push counter, so same-time events fire in schedule order and every key
// is unique; any valid heap over (when, seq) fires in the same order.
//
// Slots.  An event's callback lives in an arena slot: an EventFn in a
// fixed-size chunk that never moves, beside the slot's handle generation and
// heap position.  EventId packs (generation << 32 | slot); the generation is
// bumped when the event fires or is cancelled, so a stale handle fails to
// match.  cancel() removes the heap entry eagerly, so heap and arena stay
// bounded by the peak number of live events, and freed slots are reused.
//
// Firing in place.  push() constructs the callable once, straight into its
// slot (small nothrow-movable targets inline, larger ones in one heap
// allocation), and fire_next() runs it where it sits, however many events
// it pushes.  The fired event's handle goes stale before the call, so
// cancelling it from inside returns false; the closure is destroyed and the
// slot freed once the call returns or throws.
//
// Root hand-off.  While a callback runs, its entry keeps the heap root;
// size(), empty() and peek_time() leave it out.  The callback's first push
// takes that root over and sifts down once, so a timer that re-arms itself
// costs one sift; if nothing is pushed, the root is removed after the call.
// The firing key is below every other key, so cancels and later pushes never
// move it.  Firing or popping from inside a callback is a contract error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/assertx.hpp"

namespace mhp {

using EventId = std::uint64_t;

/// Move-only type-erased `void()` callable with small-buffer storage.
/// Targets up to kInlineSize bytes with a nothrow move constructor are stored
/// inline; anything larger falls back to a single heap allocation.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept : vt_(other.vt_) {
    if (vt_) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_) {
        vt_->relocate(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Construct `f`'s target directly in this (empty) object.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVt<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &kHeapVt<D>;
    }
  }

  /// Destroy the target, leaving the object empty.
  void reset() noexcept {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  void operator()() { vt_->invoke(buf_); }

  explicit operator bool() const { return vt_ != nullptr; }
  friend bool operator==(const EventFn& f, std::nullptr_t) { return !f; }
  friend bool operator==(std::nullptr_t, const EventFn& f) { return !f; }
  friend bool operator!=(const EventFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }
  friend bool operator!=(std::nullptr_t, const EventFn& f) {
    return static_cast<bool>(f);
  }

  /// Whether the target lives in the inline buffer (no heap allocation).
  bool is_inline() const { return vt_ != nullptr && vt_->inline_storage; }

 private:
  struct VTable {
    void (*invoke)(void*);
    // Move-construct the target into dst from src, then destroy src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static void inline_invoke(void* p) {
    (*std::launder(reinterpret_cast<D*>(p)))();
  }
  template <typename D>
  static void inline_relocate(void* dst, void* src) noexcept {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }
  template <typename D>
  static void inline_destroy(void* p) noexcept {
    std::launder(reinterpret_cast<D*>(p))->~D();
  }

  template <typename D>
  static D* heap_ptr(void* p) {
    return *std::launder(reinterpret_cast<D**>(p));
  }
  template <typename D>
  static void heap_invoke(void* p) {
    (*heap_ptr<D>(p))();
  }
  template <typename D>
  static void heap_relocate(void* dst, void* src) noexcept {
    ::new (dst) D*(heap_ptr<D>(src));
  }
  template <typename D>
  static void heap_destroy(void* p) noexcept {
    delete heap_ptr<D>(p);
  }

  template <typename D>
  static constexpr VTable kInlineVt{&inline_invoke<D>, &inline_relocate<D>,
                                    &inline_destroy<D>, true};
  template <typename D>
  static constexpr VTable kHeapVt{&heap_invoke<D>, &heap_relocate<D>,
                                  &heap_destroy<D>, false};

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

class EventQueue {
 public:
  /// Insert an event; returns a handle usable with cancel().  The callable
  /// is constructed once, in its slot: an rvalue is moved there exactly
  /// once, an lvalue copied (an EventFn is moved in as it is).
  template <typename F>
  EventId push(Time when, F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, EventFn>)
      MHP_REQUIRE(fn != nullptr, "null event function");
    else
      static_assert(std::is_invocable_r_v<void, D&>,
                    "an event callback is callable as void()");
    const std::uint32_t slot = acquire_slot();
    EventFn& target = fn_at(slot);
    try {
      if constexpr (std::is_same_v<D, EventFn>)
        target = std::forward<F>(fn);
      else
        target.emplace(std::forward<F>(fn));
    } catch (...) {
      free_.push_back(slot);  // capacity reserved by acquire_slot
      throw;
    }
    return link(when, slot);
  }

  /// Cancel a pending event.  Returns false if it already fired (or is
  /// firing), was cancelled, or never existed (the handle's generation no
  /// longer matches).
  bool cancel(EventId id);

  bool empty() const { return size() == 0; }
  /// Pending events; a firing event is not pending.
  std::size_t size() const { return heap_.size() - (root_held_ ? 1 : 0); }

  /// Time of the earliest pending event; nullopt when there is none.
  std::optional<Time> peek_time() const;

  /// Fire the earliest event if it is due by `deadline`: set `now` to its
  /// time, then run its callback in place.  Returns whether one fired.  An
  /// exception from the callback propagates after the event is retired.
  bool fire_next(Time deadline, Time& now);

  struct Popped {
    Time when;
    EventId id;
    EventFn fn;
  };
  /// Remove and return the earliest event without running it; nullopt when
  /// empty.
  std::optional<Popped> pop();

  /// Number of arena slots ever allocated (live + free-listed).  Bounded by
  /// the peak number of simultaneously live events, independent of how many
  /// events were pushed or cancelled over the queue's lifetime.
  std::size_t arena_slots() const { return gen_.size(); }

  /// Pushes that took over a firing event's heap root.
  std::uint64_t root_handoffs() const { return root_handoffs_; }

 private:
  static constexpr std::uint64_t kSlotMask = 0xffffffffull;
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  EventId id_of(std::uint32_t slot) const {
    return (static_cast<std::uint64_t>(gen_[slot]) << 32) | slot;
  }
  EventFn& fn_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  // A free slot, with room reserved for its heap entry and its later
  // return to the free list, so link() and retiring never allocate.
  std::uint32_t acquire_slot();
  // Give `slot` (whose callback is in place) its heap entry.
  EventId link(Time when, std::uint32_t slot) noexcept;
  void end_fire(std::uint32_t slot) noexcept;
  void release_slot(std::uint32_t slot) noexcept;

  // Move `e` into the hole at `pos` and restore the heap order.
  void sift_up(std::size_t pos, Entry e) noexcept;
  void sift_down(std::size_t pos, Entry e) noexcept;
  void place(std::size_t pos, const Entry& e) noexcept {
    heap_[pos] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }
  void heap_remove(std::size_t pos) noexcept;

  // Arena, indexed by slot.  Callbacks sit in chunks that never move.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<std::uint32_t> gen_;
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint32_t> free_;

  // 4-ary min-heap ordered by (when, seq).
  std::vector<Entry> heap_;

  std::uint64_t next_seq_ = 0;
  std::uint64_t root_handoffs_ = 0;
  bool firing_ = false;
  bool root_held_ = false;  // the firing event still occupies heap_[0]
};

}  // namespace mhp
