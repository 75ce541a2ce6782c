#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/profiler.hpp"
#include "scenario/scenario.hpp"
#include "util/assertx.hpp"

namespace mhp::serve {

namespace {

using obs::Json;

/// A validated submission, ready for admission.
struct Parsed {
  std::string name;
  std::string canonical;  // durable-identity hash input
  std::vector<scenario::CampaignPoint> points;
};

/// Strict validation: campaigns (a "base" key) go through parse_campaign,
/// everything else through parse_scenario.  Both reject with the exact
/// dotted-path error the CLI would print.  Campaign bases must be inline
/// objects over the wire — the client resolves file paths before sending.
Parsed parse_submission(const Json& doc) {
  if (!doc.is_object())
    throw scenario::ScenarioError("submit.doc: expected object");
  Parsed p;
  if (doc.find("base") != nullptr) {
    const scenario::Campaign campaign = scenario::parse_campaign(
        doc, [](const std::string& path) -> std::string {
          throw scenario::ScenarioError(
              "campaign.base: file path \"" + path +
              "\" cannot be resolved server-side; inline the base object "
              "(mhp_run --submit does this automatically)");
        });
    p.name = campaign.name;
    p.canonical = campaign.base.dump();
    p.points = expand_campaign(campaign);
    for (const scenario::CampaignPoint& pt : p.points) {
      p.canonical += '\n';
      p.canonical += pt.key;
    }
    return p;
  }
  const scenario::Scenario s = scenario::parse_scenario(doc);
  p.name = s.name;
  Json canonical = scenario::scenario_to_json(s);
  p.canonical = canonical.dump();
  p.points.push_back(scenario::CampaignPoint{"base", std::move(canonical)});
  return p;
}

Json response_base(const char* op, const char* status) {
  return Json::object().set("op", Json(op)).set("status", Json(status));
}

Json stats_to_json(const ServeStats& s) {
  return Json::object()
      .set("submissions_ok", Json(s.submissions_ok))
      .set("rejected_invalid", Json(s.rejected_invalid))
      .set("rejected_full", Json(s.rejected_full))
      .set("points_ok", Json(s.points_ok))
      .set("points_failed", Json(s.points_failed))
      .set("points_skipped", Json(s.points_skipped))
      .set("points_cancelled", Json(s.points_cancelled))
      .set("jobs_evicted", Json(s.jobs_evicted));
}

}  // namespace

std::string content_hash_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char out[17];
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[h & 0xf];
    h >>= 4;
  }
  out[16] = '\0';
  return std::string(out);
}

std::string job_dir_name(const std::string& name, const std::string& hash) {
  std::string safe;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    safe.push_back(ok ? c : '_');
  }
  if (safe.empty()) safe = "job";
  return safe + "-" + hash;
}

bool Server::Connection::send(const Json& doc) {
  if (closed.load(std::memory_order_relaxed)) return false;
  const std::lock_guard lock(write_mu);
  if (!sock.send_line(doc.dump())) {
    closed.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

Server::Server(ServeConfig config) : cfg_(std::move(config)) {
  pool_ = std::make_unique<ThreadPool>(cfg_.workers);
}

Server::~Server() {
  request_stop();
  // The pool destructor runs every queued task; abort_pending_ makes the
  // unstarted ones cheap no-ops while in-flight points finish and flush.
  pool_.reset();
  close_connections();
  if (listener_.valid()) {
    listener_.close();
    ::unlink(cfg_.socket_path.c_str());
  }
}

void Server::start() {
  MHP_REQUIRE(!cfg_.socket_path.empty(), "serve: empty socket path");
  std::filesystem::create_directories(cfg_.out_root);
  listener_ = listen_unix(cfg_.socket_path);
}

void Server::request_stop() {
  abort_pending_.store(true, std::memory_order_relaxed);
  draining_.store(true, std::memory_order_relaxed);
  stop_accept_.store(true, std::memory_order_relaxed);
}

ServeStats Server::stats() const {
  const std::lock_guard lock(mu_);
  return stats_;
}

void Server::log_line(const char* fmt, ...) {
  if (cfg_.log == nullptr) return;
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(cfg_.log, fmt, args);
  va_end(args);
  std::fputc('\n', cfg_.log);
  std::fflush(cfg_.log);
}

void Server::run() {
  MHP_REQUIRE(listener_.valid(), "Server::run before start()");
  log_line("serve: listening on %s (queue capacity %zu, %zu worker(s))",
           cfg_.socket_path.c_str(), cfg_.queue_capacity,
           pool_->worker_count());

  constexpr int kPollMs = 50;
  while (!stop_accept_.load(std::memory_order_relaxed)) {
    reap_finished();
    pollfd pfd{listener_.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      // Out of descriptors: the pending connection keeps the listener
      // readable, so retrying at once would spin.  Wait one interval for
      // finishing connections to give descriptors back.
      if (errno == EMFILE || errno == ENFILE)
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      continue;
    }
    auto conn = std::make_shared<Connection>(Socket(fd));
    const std::lock_guard lock(conn_mu_);
    handlers_.push_back({conn, std::thread([this, conn] {
                           handle_connection(conn);
                           conn->finished.store(true,
                                                std::memory_order_release);
                         })});
  }

  // Graceful exit: whatever triggered the stop (shutdown op or signal),
  // every dispatched point finishes and flushes its manifest line before
  // the listener goes away.  abort_pending_ (signal path) short-circuits
  // queued points so the drain is prompt.
  draining_.store(true, std::memory_order_relaxed);
  wait_drained();
  pool_->wait_idle();

  close_connections();

  listener_.close();
  ::unlink(cfg_.socket_path.c_str());
  const ServeStats s = stats();
  log_line(
      "serve: shut down (%llu submission(s): %llu points ok, %llu failed, "
      "%llu skipped, %llu cancelled; rejected %llu invalid, %llu full)",
      static_cast<unsigned long long>(s.submissions_ok),
      static_cast<unsigned long long>(s.points_ok),
      static_cast<unsigned long long>(s.points_failed),
      static_cast<unsigned long long>(s.points_skipped),
      static_cast<unsigned long long>(s.points_cancelled),
      static_cast<unsigned long long>(s.rejected_invalid),
      static_cast<unsigned long long>(s.rejected_full));
}

void Server::handle_connection(const std::shared_ptr<Connection>& conn) {
  LineReader reader(conn->sock.fd(), kMaxRequestLineBytes);
  while (auto line = reader.next()) {
    if (line->empty()) continue;
    Json request;
    try {
      request = obs::parse_json(*line);
    } catch (const obs::JsonParseError& e) {
      conn->send(response_base("?", "bad_request")
                     .set("error", Json(std::string(e.what()))));
      continue;
    }
    bool shutdown_after = false;
    const Json response = handle_request(conn, request, shutdown_after);
    if (!response.is_null()) conn->send(response);
    if (shutdown_after) {
      stop_accept_.store(true, std::memory_order_relaxed);
      break;
    }
  }
  if (reader.too_long())
    conn->send(response_base("?", "bad_request")
                   .set("error", Json("request line longer than " +
                                      std::to_string(kMaxRequestLineBytes) +
                                      " bytes")));
  conn->closed.store(true, std::memory_order_relaxed);
  conn->sock.shutdown_both();
}

void Server::reap_finished() {
  const std::lock_guard lock(conn_mu_);
  std::erase_if(handlers_, [](Handler& h) {
    if (!h.conn->finished.load(std::memory_order_acquire)) return false;
    h.thread.join();
    return true;
  });
}

void Server::close_connections() {
  std::vector<Handler> handlers;
  {
    const std::lock_guard lock(conn_mu_);
    for (const Handler& h : handlers_) {
      h.conn->closed.store(true, std::memory_order_relaxed);
      h.conn->sock.shutdown_both();
    }
    handlers.swap(handlers_);
  }
  for (Handler& h : handlers)
    if (h.thread.joinable()) h.thread.join();
}

Json Server::handle_request(const std::shared_ptr<Connection>& conn,
                            const Json& request, bool& shutdown_after) {
  const Json* op = request.is_object() ? request.find("op") : nullptr;
  if (op == nullptr || !op->is_string())
    return response_base("?", "bad_request")
        .set("error", Json("request must be an object with a string "
                           "\"op\""));
  const std::string& name = op->as_string();
  if (name == "submit") {
    handle_submit(conn, request);  // sends its own response + frames
    return Json();
  }
  if (name == "status") return handle_status();
  if (name == "cancel") return handle_cancel(request);
  if (name == "drain") {
    draining_.store(true, std::memory_order_relaxed);
    wait_drained();
    return response_base("drain", "ok").set("pending", Json(0));
  }
  if (name == "shutdown") {
    draining_.store(true, std::memory_order_relaxed);
    wait_drained();
    shutdown_after = true;
    return response_base("shutdown", "ok");
  }
  return response_base(name.c_str(), "bad_request")
      .set("error", Json("unknown op \"" + name + "\""));
}

void Server::handle_submit(const std::shared_ptr<Connection>& conn,
                           const Json& request) {
  const Json* doc = request.find("doc");
  if (doc == nullptr) {
    conn->send(response_base("submit", "bad_request")
                   .set("error", Json("submit: missing \"doc\"")));
    return;
  }

  // Admission validation: the strict parsers reject with the exact
  // dotted-path error, before anything is queued or written.
  Parsed parsed;
  try {
    parsed = parse_submission(*doc);
  } catch (const std::exception& e) {
    {
      const std::lock_guard lock(mu_);
      ++stats_.rejected_invalid;
    }
    conn->send(response_base("submit", "invalid")
                   .set("error", Json(std::string(e.what()))));
    return;
  }

  // Durable identity: same document → same directory → manifest resume,
  // whether the previous attempt ran under this server or an earlier one.
  const std::string dir =
      cfg_.out_root + "/" +
      job_dir_name(parsed.name, content_hash_hex(parsed.canonical));
  scenario::JobLog log(dir);
  if (!log.is_open()) {
    conn->send(response_base("submit", "error")
                   .set("error", Json("cannot open output files in " + dir)));
    return;
  }
  std::vector<scenario::CampaignPoint> runnable;
  std::vector<std::string> skipped;
  for (scenario::CampaignPoint& pt : parsed.points) {
    if (log.finished(pt.key))
      skipped.push_back(pt.key);
    else
      runnable.push_back(std::move(pt));
  }

  std::shared_ptr<Job> job;
  {
    const std::lock_guard lock(mu_);
    if (draining_.load(std::memory_order_relaxed)) {
      conn->send(response_base("submit", "draining")
                     .set("error", Json("server is draining; submissions "
                                        "are closed")));
      return;
    }
    for (const auto& other : jobs_) {
      bool active;
      {
        const std::lock_guard jlock(other->mu);
        active = other->done < other->total;
      }
      if (active && other->dir == dir) {
        conn->send(response_base("submit", "busy")
                       .set("error", Json("this submission is already "
                                          "running as " + other->id))
                       .set("job", Json(other->id)));
        return;
      }
    }
    // Bounded queue with explicit backpressure: admission past the cap
    // is a queue_full response, never a blocked client.  The whole
    // submission is admitted atomically or not at all.
    if (pending_ + runnable.size() > cfg_.queue_capacity) {
      ++stats_.rejected_full;
      conn->send(response_base("submit", "queue_full")
                     .set("pending", Json(pending_))
                     .set("capacity", Json(cfg_.queue_capacity)));
      return;
    }
    pending_ += runnable.size();
    // Fill the job in before publishing it: other connections read jobs_
    // (busy check, status) as soon as the lock is released.
    job = std::make_shared<Job>();
    job->id = "j" + std::to_string(next_job_id_++);
    job->name = parsed.name;
    job->dir = dir;
    job->total = parsed.points.size();
    job->client = conn;
    job->log = std::move(log);
    job->skipped = skipped.size();
    job->done = skipped.size();
    job->runnable = std::move(runnable);
    jobs_.push_back(job);
    ++stats_.submissions_ok;
    stats_.points_skipped += skipped.size();
  }

  conn->send(response_base("submit", "ok")
                 .set("job", Json(job->id))
                 .set("dir", Json(dir))
                 .set("points", Json(job->total))
                 .set("skipped", Json(job->skipped)));
  log_line("serve: %s admitted \"%s\" (%zu point(s), %zu already complete) "
           "-> %s",
           job->id.c_str(), job->name.c_str(), job->total, job->skipped,
           dir.c_str());

  // Replay completed points from the durable record so a resumed
  // submission still streams every report it asked for.
  if (!skipped.empty()) {
    // No point of this job runs before the loop below submits it, so the
    // log is still this thread's alone.
    const auto results = job->log->read_results();
    std::unordered_map<std::string_view, const Json*> by_key;
    for (const auto& [key, entry] : results) by_key.emplace(key, &entry);
    for (const std::string& key : skipped) {
      Json frame = Json::object()
                       .set("frame", Json("result"))
                       .set("job", Json(job->id))
                       .set("key", Json(key))
                       .set("status", Json("skipped"));
      double wall_ms = 0.0;
      const Json* report = nullptr;
      if (const auto it = by_key.find(key); it != by_key.end()) {
        if (const Json* ms = it->second->find("point_wall_ms"))
          if (ms->is_number()) wall_ms = ms->as_double();
        report = it->second->find("report");
      }
      frame.set("point_wall_ms", Json(wall_ms));
      if (report != nullptr) frame.set("report", *report);
      conn->send(frame);
    }
  }

  const std::size_t n = job->runnable.size();
  if (n == 0) {
    finish_job(job);
    return;
  }
  for (std::size_t i = 0; i < n; ++i)
    pool_->submit([this, job, i] { run_point(job, i); });
}

void Server::run_point(const std::shared_ptr<Job>& job, std::size_t index) {
  const scenario::CampaignPoint& point = job->runnable[index];

  std::string status;
  scenario::PointOutcome outcome;
  if (abort_pending_.load(std::memory_order_relaxed) ||
      job->cancel.load(std::memory_order_relaxed)) {
    // Not run, not recorded: a resume (same submission, later) reruns it.
    status = "cancelled";
  } else {
    if (cfg_.point_hook) cfg_.point_hook();
    MHP_SPAN("serve/point");
    outcome = scenario::run_point(point);
    status = outcome.error.empty() ? "ok" : "failed";
  }

  Json frame = Json::object()
                   .set("frame", Json("result"))
                   .set("job", Json(job->id))
                   .set("key", Json(point.key))
                   .set("status", Json(status))
                   .set("point_wall_ms", Json(outcome.wall_ms));
  if (status == "failed") frame.set("error", Json(outcome.error));

  bool job_complete = false;
  {
    const std::lock_guard lock(job->mu);
    if (status == "cancelled")
      ++job->cancelled;
    else
      job->log->record(point, outcome);
    if (status == "ok") ++job->ok;
    if (status == "failed") ++job->failed;
    ++job->done;
    job_complete = job->done == job->total;
    // Send under job->mu: per-job frame order then matches counter
    // order, so the done frame (emitted by whichever worker retires the
    // last point) can never overtake another point's result frame.
    if (status == "ok") frame.set("report", std::move(outcome.report));
    job->client->send(frame);
  }

  if (job_complete) finish_job(job);

  {
    const std::lock_guard lock(mu_);
    MHP_REQUIRE(pending_ > 0, "serve: pending underflow");
    --pending_;
    if (status == "ok")
      ++stats_.points_ok;
    else if (status == "failed")
      ++stats_.points_failed;
    else
      ++stats_.points_cancelled;
  }
  drained_cv_.notify_all();
}

void Server::finish_job(const std::shared_ptr<Job>& job) {
  std::size_t ok, failed, skipped, cancelled;
  {
    const std::lock_guard lock(job->mu);
    ok = job->ok;
    failed = job->failed;
    skipped = job->skipped;
    cancelled = job->cancelled;
  }
  // Every point has retired, so nothing else touches the log.  Its lines
  // were flushed as they were appended, so once the client sees the
  // done frame the durable record is complete.
  job->log->write_summary(job->name, job->total);
  std::shared_ptr<Connection> client;
  {
    // The job keeps its counters for status; its point documents, its
    // files and its claim on the client's socket go.
    const std::lock_guard lock(job->mu);
    job->runnable = {};
    job->log.reset();
    client = std::move(job->client);
  }
  {
    // Bounded history, settled before the done frame goes out so a
    // client that has seen it also sees the eviction in status.
    const std::lock_guard lock(mu_);
    job->finished = true;
    if (++finished_jobs_ > kFinishedJobHistory) {
      const auto oldest = std::find_if(
          jobs_.begin(), jobs_.end(),
          [](const std::shared_ptr<Job>& j) { return j->finished; });
      jobs_.erase(oldest);
      --finished_jobs_;
      ++stats_.jobs_evicted;
    }
  }
  client->send(Json::object()
                   .set("frame", Json("done"))
                   .set("job", Json(job->id))
                   .set("total", Json(job->total))
                   .set("ok", Json(ok))
                   .set("failed", Json(failed))
                   .set("skipped", Json(skipped))
                   .set("cancelled", Json(cancelled)));
  log_line("serve: %s done (%zu ok, %zu failed, %zu skipped, %zu cancelled)",
           job->id.c_str(), ok, failed, skipped, cancelled);
}

Json Server::handle_status() {
  std::vector<std::shared_ptr<Job>> jobs;
  Json response;
  {
    const std::lock_guard lock(mu_);
    response = response_base("status", "ok")
                   .set("pending", Json(pending_))
                   .set("capacity", Json(cfg_.queue_capacity))
                   .set("draining",
                        Json(draining_.load(std::memory_order_relaxed)))
                   .set("stats", stats_to_json(stats_));
    jobs = jobs_;
  }
  Json list = Json::array();
  for (const auto& job : jobs) {
    const std::lock_guard jlock(job->mu);
    list.push_back(Json::object()
                       .set("job", Json(job->id))
                       .set("name", Json(job->name))
                       .set("dir", Json(job->dir))
                       .set("total", Json(job->total))
                       .set("done", Json(job->done))
                       .set("ok", Json(job->ok))
                       .set("failed", Json(job->failed))
                       .set("skipped", Json(job->skipped))
                       .set("cancelled", Json(job->cancelled)));
  }
  response.set("jobs", std::move(list));
  return response;
}

Json Server::handle_cancel(const Json& request) {
  const Json* id = request.find("job");
  if (id == nullptr || !id->is_string())
    return response_base("cancel", "bad_request")
        .set("error", Json("cancel: missing string \"job\""));
  std::shared_ptr<Job> target;
  {
    const std::lock_guard lock(mu_);
    for (const auto& job : jobs_)
      if (job->id == id->as_string()) target = job;
  }
  if (target == nullptr)
    return response_base("cancel", "unknown_job")
        .set("error", Json("no job \"" + id->as_string() + "\""));
  target->cancel.store(true, std::memory_order_relaxed);
  return response_base("cancel", "ok").set("job", Json(target->id));
}

void Server::wait_drained() {
  std::unique_lock lock(mu_);
  drained_cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace mhp::serve
