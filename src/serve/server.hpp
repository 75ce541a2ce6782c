// Campaign service: a long-lived daemon (mhp_run --serve) that accepts
// scenario and campaign submissions over a local UNIX socket, executes
// their points on a shared worker pool behind a bounded admission queue,
// streams per-point results back to the submitting client, and persists
// every job under a durable per-job directory so the campaign layer's
// manifest-resume protocol works across server restarts.
//
// Admission model: a submission is validated (strict scenario parser —
// rejection carries the exact dotted-path error), expanded into points,
// reconciled against its job directory's manifest (completed points are
// replayed as "skipped" frames, not re-run), and admitted atomically:
// if the runnable points would push the in-system point count past
// `queue_capacity`, the whole submission is rejected with "queue_full"
// — the server never blocks a client on a full queue.
//
// Durability: a job's directory name is a pure function of the
// submission's canonical form (name + FNV-1a hash), so resubmitting the
// same document — to the same server or a restarted one — lands in the
// same directory and resumes from its manifest.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "scenario/campaign.hpp"
#include "serve/protocol.hpp"
#include "util/thread_pool.hpp"

namespace mhp::serve {

/// Finished jobs the server keeps in memory for status and cancel; older
/// ones are dropped (their directories stay, so resubmitting one resumes
/// from its manifest).
inline constexpr std::size_t kFinishedJobHistory = 64;

struct ServeConfig {
  /// UNIX socket path to listen on.
  std::string socket_path;
  /// Root for per-job output directories (created if missing).
  std::string out_root = ".";
  /// Worker threads executing points (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Max points in the system (queued + running) before submissions are
  /// rejected with "queue_full".
  std::size_t queue_capacity = 256;
  /// Progress log (nullable).
  std::FILE* log = nullptr;
  /// Test instrumentation: invoked on the worker thread immediately
  /// before a point executes.  Lets tests hold the queue at a known
  /// depth to exercise backpressure deterministically.
  std::function<void()> point_hook;
};

/// Monotonic counters over the server's lifetime (one snapshot under the
/// engine lock; safe to call from any thread).
struct ServeStats {
  std::uint64_t submissions_ok = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t points_ok = 0;
  std::uint64_t points_failed = 0;
  std::uint64_t points_skipped = 0;    // replayed from a manifest
  std::uint64_t points_cancelled = 0;  // cancel op or server stop
  std::uint64_t jobs_evicted = 0;      // finished jobs dropped from memory
};

class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on the configured socket path.  Throws on failure;
  /// once it returns, clients can connect (the accept loop in run()
  /// drains the backlog).
  void start();

  /// Accept/serve loop.  Blocks until a shutdown request or
  /// request_stop(), then drains in-flight points, flushes every job's
  /// manifest and summary, and tears the listener down.
  void run();

  /// Graceful stop from outside the protocol (signal handlers): stop
  /// admitting, abandon queued-but-unstarted points (no manifest lines,
  /// so they rerun on resume), let in-flight points finish and flush.
  /// Only sets flags — safe to call from a signal handler.
  void request_stop();

  ServeStats stats() const;

 private:
  struct Connection {
    Socket sock;
    std::mutex write_mu;
    std::atomic<bool> closed{false};
    std::atomic<bool> finished{false};  // its handler thread has returned

    explicit Connection(Socket s) : sock(std::move(s)) {}

    /// One frame/response as a single line; a dead peer flips `closed`
    /// and further sends become no-ops (the job still completes to disk).
    bool send(const obs::Json& doc);
  };

  struct Job {
    std::string id;    // server-run handle ("j1", "j2", ...)
    std::string name;  // scenario/campaign name from the document
    std::string dir;   // durable output directory (stable across restarts)
    // The points to execute and their durable record; finish_job
    // releases both, and the client, so a finished job keeps only the
    // counters status reports, until kFinishedJobHistory newer jobs have
    // finished.
    std::vector<scenario::CampaignPoint> runnable;
    std::optional<scenario::JobLog> log;
    std::size_t total = 0;  // expansion size incl. skipped points
    std::shared_ptr<Connection> client;
    std::mutex mu;  // guards counters + the log
    std::size_t done = 0, ok = 0, failed = 0, skipped = 0, cancelled = 0;
    std::atomic<bool> cancel{false};
    bool finished = false;  // guarded by Server::mu_
  };

  /// One accepted connection and the thread serving it.
  struct Handler {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };

  void handle_connection(const std::shared_ptr<Connection>& conn);
  /// Join the threads of connections whose handler has returned and drop
  /// the server's reference, so the socket closes once no job holds it.
  void reap_finished();
  /// Shut every connection down and join every handler thread.
  void close_connections();
  obs::Json handle_request(const std::shared_ptr<Connection>& conn,
                           const obs::Json& request, bool& shutdown_after);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const obs::Json& request);
  obs::Json handle_status();
  obs::Json handle_cancel(const obs::Json& request);
  void run_point(const std::shared_ptr<Job>& job, std::size_t index);
  void finish_job(const std::shared_ptr<Job>& job);
  void wait_drained();
  void log_line(const char* fmt, ...);

  ServeConfig cfg_;
  Socket listener_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mu_;  // engine state: pending count, jobs, stats
  std::condition_variable drained_cv_;
  std::size_t pending_ = 0;  // admitted, unfinished points (in-system)
  std::vector<std::shared_ptr<Job>> jobs_;  // oldest first
  std::size_t finished_jobs_ = 0;           // of jobs_
  std::uint64_t next_job_id_ = 1;
  ServeStats stats_;

  std::atomic<bool> draining_{false};       // reject new submissions
  std::atomic<bool> stop_accept_{false};    // leave the accept loop
  std::atomic<bool> abort_pending_{false};  // skip queued, unstarted points

  std::mutex conn_mu_;
  std::vector<Handler> handlers_;
};

/// FNV-1a 64-bit over `text`, as 16 lowercase hex chars.  Job directory
/// names append this to the submission name.
std::string content_hash_hex(const std::string& text);

/// "name-<hash>" with the name sanitized to [A-Za-z0-9_-] (everything
/// else becomes '_'); empty names become "job".
std::string job_dir_name(const std::string& name, const std::string& hash);

}  // namespace mhp::serve
