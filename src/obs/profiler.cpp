#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/stats.hpp"

namespace mhp::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// Epoch every event time is relative to, stamped by the first enable().
std::mutex g_epoch_mu;
bool g_epoch_set = false;
Clock::time_point g_epoch;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           g_epoch)
          .count());
}

/// Interned span paths.  An id is stable for the process lifetime, so
/// events from different drains (and threads) agree on labels.
struct PathKey {
  std::uint32_t parent;
  const char* name;
  bool operator==(const PathKey& o) const {
    return parent == o.parent && name == o.name;
  }
};
struct PathKeyHash {
  std::size_t operator()(const PathKey& k) const {
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(k.parent);
    mix(reinterpret_cast<std::uintptr_t>(k.name));
    return static_cast<std::size_t>(h);
  }
};

constexpr std::uint32_t kRootPath = 0xffffffffu;

std::mutex g_paths_mu;
std::vector<std::string> g_paths;  // id -> slash-joined path
std::unordered_map<PathKey, std::uint32_t, PathKeyHash> g_path_ids;

std::uint32_t intern_path(std::uint32_t parent, const char* name) {
  std::lock_guard<std::mutex> lock(g_paths_mu);
  const auto [it, inserted] =
      g_path_ids.try_emplace(PathKey{parent, name},
                             static_cast<std::uint32_t>(g_paths.size()));
  if (inserted) {
    std::string full = parent == kRootPath
                           ? std::string(name)
                           : g_paths[parent] + "/" + name;
    g_paths.push_back(std::move(full));
  }
  return it->second;
}

std::vector<std::string> snapshot_paths() {
  std::lock_guard<std::mutex> lock(g_paths_mu);
  return g_paths;
}

}  // namespace

std::atomic<bool> Profiler::g_enabled{false};

namespace {

/// Per-thread recording state.  The owning thread is the only writer;
/// drain() is the only reader and reads nothing past the released
/// `published` count, so no event is ever read while being written.
struct ThreadState {
  /// Chunked event storage: chunks are never reallocated or freed while
  /// the profiler lives, so published events stay at stable addresses.
  struct Chunk {
    static constexpr std::size_t kCap = 2048;
    std::array<ProfileEvent, kCap> events;
    std::atomic<Chunk*> next{nullptr};
  };

  struct OpenSpan {
    std::uint32_t path = 0;
    std::uint64_t start_ns = 0;
    std::array<ProfileEvent::Counter, ProfileEvent::kMaxCounters> counters{};
  };

  explicit ThreadState(std::uint32_t id) : tid(id) {}
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
  /// `head` owns the first chunk; the later ones hang off `next`.
  ~ThreadState() {
    Chunk* c = head ? head->next.load(std::memory_order_relaxed) : nullptr;
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  std::uint32_t tid;

  // Writer side.
  std::array<OpenSpan, Profiler::kMaxDepth> stack;
  std::size_t depth = 0;  // may exceed kMaxDepth; excess spans drop
  std::unique_ptr<Chunk> head;
  Chunk* tail = nullptr;
  std::size_t tail_used = 0;
  std::atomic<std::uint64_t> published{0};

  // Collector side (guarded by the registry mutex).
  Chunk* drain_chunk = nullptr;
  std::size_t drain_offset = 0;
  std::uint64_t drained = 0;

  void append(const ProfileEvent& ev) {
    if (tail == nullptr) {
      head = std::make_unique<Chunk>();
      tail = head.get();
      tail_used = 0;
    } else if (tail_used == Chunk::kCap) {
      auto* fresh = new Chunk();
      // Publish the link before the count that points into it.
      tail->next.store(fresh, std::memory_order_release);
      tail = fresh;
      tail_used = 0;
    }
    tail->events[tail_used++] = ev;
    published.store(published.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
};

/// Registered thread states.  Owned here so a worker thread exiting
/// (ThreadPool teardown between sweeps) cannot invalidate events that
/// have not been drained yet.  First chunk ownership: ThreadState::head
/// owns the list head; later chunks are reachable through `next` and
/// deleted with the state.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadState>> g_states;

thread_local ThreadState* t_state = nullptr;

ThreadState& this_thread_state() {
  if (t_state == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_states.push_back(std::make_unique<ThreadState>(
        static_cast<std::uint32_t>(g_states.size())));
    t_state = g_states.back().get();
  }
  return *t_state;
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::enable() {
  {
    std::lock_guard<std::mutex> lock(g_epoch_mu);
    if (!g_epoch_set) {
      g_epoch = Clock::now();
      g_epoch_set = true;
    }
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void Profiler::disable() {
  g_enabled.store(false, std::memory_order_relaxed);
}

void Profiler::open_span(const char* name) {
  ThreadState& st = this_thread_state();
  const std::size_t depth = st.depth++;
  if (depth >= kMaxDepth) {
    instance().dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint32_t parent =
      depth == 0 ? kRootPath : st.stack[depth - 1].path;
  ThreadState::OpenSpan& span = st.stack[depth];
  span.path = intern_path(parent, name);
  span.counters = {};
  span.start_ns = now_ns();
}

void Profiler::close_span() {
  ThreadState& st = *t_state;  // open_span registered the state
  const std::size_t depth = --st.depth;
  if (depth >= kMaxDepth) return;  // the matching open was dropped
  const ThreadState::OpenSpan& span = st.stack[depth];
  ProfileEvent ev;
  ev.path = span.path;
  ev.depth = static_cast<std::uint32_t>(depth);
  ev.tid = st.tid;
  ev.start_ns = span.start_ns;
  ev.dur_ns = now_ns() - span.start_ns;
  ev.counters = span.counters;
  st.append(ev);
}

void Profiler::attach_counter(const char* name, std::uint64_t value) {
  ThreadState* st = t_state;
  if (st == nullptr || st->depth == 0) return;  // no open span
  if (st->depth > kMaxDepth) {
    instance().dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto& counters = st->stack[st->depth - 1].counters;
  for (auto& c : counters) {
    if (c.name == name) {
      c.value += value;
      return;
    }
    if (c.name == nullptr) {
      c = {name, value};
      return;
    }
  }
  instance().dropped_.fetch_add(1, std::memory_order_relaxed);
}

ProfileData Profiler::drain() {
  ProfileData out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& st : g_states) {
    const std::uint64_t published =
        st->published.load(std::memory_order_acquire);
    if (st->drain_chunk == nullptr) {
      st->drain_chunk = st->head.get();
      st->drain_offset = 0;
    }
    while (st->drained < published && st->drain_chunk != nullptr) {
      if (st->drain_offset == ThreadState::Chunk::kCap) {
        st->drain_chunk =
            st->drain_chunk->next.load(std::memory_order_acquire);
        st->drain_offset = 0;
        continue;
      }
      out.events.push_back(st->drain_chunk->events[st->drain_offset]);
      ++st->drain_offset;
      ++st->drained;
    }
  }
  out.paths = snapshot_paths();
  return out;
}

ProfileSummary summarize_profile(const ProfileData& data, bool zero_times) {
  ProfileSummary out;
  std::map<std::string, std::vector<double>> durations;
  std::vector<std::uint32_t> tids;
  for (const ProfileEvent& ev : data.events) {
    const std::string& path = data.paths.at(ev.path);
    const double ms = static_cast<double>(ev.dur_ns) / 1e6;
    durations[path].push_back(ms);
    ProfileSummary::PerPath& agg = out.spans[path];
    ++agg.count;
    for (const auto& c : ev.counters) {
      if (c.name == nullptr) break;
      agg.counters[c.name] += c.value;
    }
    if (ev.depth == 0) out.attributed_ms += ms;
    tids.push_back(ev.tid);
  }
  std::sort(tids.begin(), tids.end());
  out.threads =
      static_cast<std::size_t>(std::unique(tids.begin(), tids.end()) -
                               tids.begin());

  for (auto& [path, agg] : out.spans) {
    const std::vector<double>& ms = durations[path];
    double total = 0.0, lo = ms.front(), hi = ms.front();
    for (const double d : ms) {
      total += d;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    agg.total_ms = total;
    agg.min_ms = lo;
    agg.max_ms = hi;
    // Quantiles through the shared fixed-bin Histogram (64 bins over the
    // observed range; a widened top edge keeps the max in the last bin).
    Histogram hist(0.0, hi > 0.0 ? hi * 1.000001 : 1.0, 64);
    for (const double d : ms) hist.add(d);
    agg.p50_ms = hist.quantile(0.50);
    agg.p95_ms = hist.quantile(0.95);
  }

  if (zero_times) {
    out.attributed_ms = 0.0;
    for (auto& [path, agg] : out.spans) {
      agg.total_ms = 0.0;
      agg.min_ms = 0.0;
      agg.max_ms = 0.0;
      agg.p50_ms = 0.0;
      agg.p95_ms = 0.0;
    }
  }
  return out;
}

Json to_json(const ProfileSummary& summary) {
  Json spans = Json::object();
  for (const auto& [path, agg] : summary.spans) {
    Json entry = Json::object()
                     .set("count", Json(agg.count))
                     .set("total_ms", Json(agg.total_ms))
                     .set("min_ms", Json(agg.min_ms))
                     .set("max_ms", Json(agg.max_ms))
                     .set("p50_ms", Json(agg.p50_ms))
                     .set("p95_ms", Json(agg.p95_ms));
    if (!agg.counters.empty()) {
      Json counters = Json::object();
      for (const auto& [name, value] : agg.counters)
        counters.set(name, Json(value));
      entry.set("counters", std::move(counters));
    }
    spans.set(path, std::move(entry));
  }
  return Json::object()
      .set("spans", std::move(spans))
      .set("attributed_ms", Json(summary.attributed_ms))
      .set("threads", Json(summary.threads));
}

Json chrome_trace_json(const ProfileData& data) {
  Json events = Json::array();

  // Thread-name metadata first, so Perfetto labels the tracks.
  std::vector<std::uint32_t> tids;
  for (const ProfileEvent& ev : data.events) tids.push_back(ev.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    events.push_back(
        Json::object()
            .set("name", Json("thread_name"))
            .set("ph", Json("M"))
            .set("pid", Json(1))
            .set("tid", Json(tid))
            .set("args", Json::object().set(
                             "name", Json("mhp-" + std::to_string(tid)))));
  }

  for (const ProfileEvent& ev : data.events) {
    Json entry = Json::object()
                     .set("name", Json(data.paths.at(ev.path)))
                     .set("cat", Json("mhp"))
                     .set("ph", Json("X"))
                     .set("pid", Json(1))
                     .set("tid", Json(ev.tid))
                     .set("ts", Json(static_cast<double>(ev.start_ns) / 1e3))
                     .set("dur", Json(static_cast<double>(ev.dur_ns) / 1e3));
    bool any = false;
    Json args = Json::object();
    for (const auto& c : ev.counters) {
      if (c.name == nullptr) break;
      args.set(c.name, Json(c.value));
      any = true;
    }
    if (any) entry.set("args", std::move(args));
    events.push_back(std::move(entry));
  }

  return Json::object()
      .set("displayTimeUnit", Json("ms"))
      .set("traceEvents", std::move(events));
}

}  // namespace mhp::obs
