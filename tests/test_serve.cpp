// Campaign service (src/serve/): admission validation, bounded-queue
// backpressure, multi-client result isolation, report equivalence with
// direct runs, drain/shutdown durability and restart resume — all over
// a real UNIX socket against the real server.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <semaphore>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "scenario/campaign.hpp"
#include "scenario/run_scenario.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace mhp {
namespace {

namespace fs = std::filesystem;
using obs::Json;
using scenario::DeploymentSpec;
using scenario::Scenario;
using scenario::StackKind;

/// Small, fast polling scenario (record_perf false → deterministic,
/// byte-stable reports).
Json quick_scenario(const std::string& name) {
  Scenario s = scenario::default_scenario(StackKind::kPolling);
  s.name = name;
  s.deployment.kind = DeploymentSpec::Kind::kRings;
  s.deployment.rings = 2;
  s.deployment.per_ring = 4;
  s.run.duration = Time::sec(8);
  s.run.warmup = Time::sec(2);
  s.run.record_perf = false;
  return scenario_to_json(s);
}

/// Campaign over `rates` with an inline base (wire-ready form).
Json quick_campaign(const std::string& name,
                    const std::vector<double>& rates) {
  Json values = Json::array();
  for (const double r : rates) values.push_back(Json(r));
  return Json::object()
      .set("name", Json(name))
      .set("base", quick_scenario(name + "_base"))
      .set("sweep", Json::object().set("traffic.rate_bps", values));
}

/// One live server on its own socket + job root, torn down with the
/// test.  Graceful paths go through the protocol ("shutdown" op); the
/// destructor falls back to request_stop() so a failing test cannot
/// hang the suite.
class TestServer {
 public:
  explicit TestServer(const std::string& tag, std::size_t workers = 2,
                      std::size_t capacity = 64,
                      std::function<void()> point_hook = {},
                      std::string root = {}) {
    const std::string base =
        (fs::temp_directory_path() /
         ("mhp_serve_" + std::to_string(::getpid()) + "_" + tag))
            .string();
    sock_ = base + ".sock";
    owns_root_ = root.empty();
    root_ = owns_root_ ? base + ".jobs" : std::move(root);
    if (owns_root_) fs::remove_all(root_);

    serve::ServeConfig cfg;
    cfg.socket_path = sock_;
    cfg.out_root = root_;
    cfg.workers = workers;
    cfg.queue_capacity = capacity;
    cfg.point_hook = std::move(point_hook);
    server_ = std::make_unique<serve::Server>(cfg);
    server_->start();
    thread_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() {
    hard_stop();
    server_.reset();
    if (owns_root_) fs::remove_all(root_);
  }

  /// Protocol shutdown (drains + flushes), then join the accept loop.
  void shutdown_via(serve::Client& client) {
    const Json response =
        client.request(Json::object().set("op", Json("shutdown")));
    EXPECT_EQ(response.at("status").as_string(), "ok");
    join();
  }

  void hard_stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  serve::Client connect() const { return serve::Client::connect(sock_); }
  const std::string& socket_path() const { return sock_; }
  const std::string& root() const { return root_; }
  serve::ServeStats stats() const { return server_->stats(); }

 private:
  std::string sock_, root_;
  bool owns_root_ = true;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++n;
  return n;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

struct JobStream {
  std::vector<Json> results;
  Json done;
};

/// Read frames until every job in `jobs` has delivered its done frame.
/// Frames for jobs this client never submitted are a test failure —
/// the isolation guarantee the protocol makes.
std::map<std::string, JobStream> collect_jobs(
    serve::Client& client, const std::set<std::string>& jobs) {
  std::map<std::string, JobStream> out;
  std::set<std::string> waiting = jobs;
  while (!waiting.empty()) {
    auto frame = client.next_frame();
    if (!frame.has_value()) {
      ADD_FAILURE() << "stream ended with " << waiting.size()
                    << " job(s) unfinished";
      break;
    }
    const Json* kind = frame->find("frame");
    if (kind == nullptr || !kind->is_string()) {
      ADD_FAILURE() << "not a frame: " << frame->dump();
      continue;
    }
    const std::string job_id = frame->at("job").as_string();
    if (jobs.count(job_id) == 0) {
      ADD_FAILURE() << "frame for a job this client never submitted: "
                    << frame->dump();
      continue;
    }
    if (kind->as_string() == "done") {
      out[job_id].done = std::move(*frame);
      waiting.erase(job_id);
    } else {
      out[job_id].results.push_back(std::move(*frame));
    }
  }
  return out;
}

JobStream stream_job(serve::Client& client, const std::string& job) {
  auto streams = collect_jobs(client, {job});
  return std::move(streams[job]);
}

// ---------- admission ----------

TEST(ServeAdmission, InvalidSubmissionsRejectedWithDottedPaths) {
  TestServer ts("invalid");
  serve::Client client = ts.connect();

  // Scenario with a wrong-typed field: the strict parser's exact
  // dotted-path error comes back over the wire.
  Json bad_scenario = quick_scenario("bad");
  *bad_scenario.find("protocol")->find("oracle_order") = Json("three");
  Json response = client.submit(bad_scenario);
  EXPECT_EQ(response.at("status").as_string(), "invalid");
  EXPECT_NE(response.at("error").as_string().find(
                "scenario.protocol.oracle_order"),
            std::string::npos)
      << response.at("error").as_string();

  // Campaign with a misspelled sweep path fails fast at admission too.
  Json values = Json::array();
  values.push_back(Json(2));
  const Json bad_campaign =
      Json::object()
          .set("name", Json("bad_sweep"))
          .set("base", quick_scenario("bad_sweep_base"))
          .set("sweep",
               Json::object().set("protocol.oracl_order", values));
  response = client.submit(bad_campaign);
  EXPECT_EQ(response.at("status").as_string(), "invalid");
  EXPECT_NE(response.at("error").as_string().find("campaign.sweep"),
            std::string::npos)
      << response.at("error").as_string();

  // Nothing was queued or recorded.
  const serve::ServeStats stats = ts.stats();
  EXPECT_EQ(stats.rejected_invalid, 2u);
  EXPECT_EQ(stats.submissions_ok, 0u);
  ts.shutdown_via(client);
}

TEST(ServeAdmission, QueueFullBeyondCapacityNeverBlocks) {
  std::counting_semaphore<64> gate(0);
  std::latch first_point_running(1);
  std::atomic<bool> counted{false};
  TestServer ts(
      "backpressure", /*workers=*/1, /*capacity=*/4, [&] {
        if (!counted.exchange(true)) first_point_running.count_down();
        gate.acquire();
      });
  serve::Client client = ts.connect();

  // A submission larger than the whole queue can never be admitted:
  // admission is atomic, so it is rejected immediately with queue_full.
  Json response =
      client.submit(quick_campaign("too_big", {1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(response.at("status").as_string(), "queue_full");
  EXPECT_EQ(response.at("capacity").as_int(), 4);
  EXPECT_EQ(response.at("pending").as_int(), 0);

  // Fill the queue to exactly the cap: 1 (held inside the gate) + 3.
  response = client.submit(quick_scenario("holder"));
  ASSERT_EQ(response.at("status").as_string(), "ok");
  const std::string holder = response.at("job").as_string();
  first_point_running.wait();
  response = client.submit(quick_campaign("filler", {10, 20, 30}));
  ASSERT_EQ(response.at("status").as_string(), "ok");
  const std::string filler = response.at("job").as_string();

  // One more point does not fit: explicit backpressure, no blocking.
  response = client.submit(quick_scenario("overflow"));
  EXPECT_EQ(response.at("status").as_string(), "queue_full");
  EXPECT_EQ(response.at("pending").as_int(), 4);
  EXPECT_EQ(response.at("capacity").as_int(), 4);

  gate.release(4);
  auto streams = collect_jobs(client, {holder, filler});
  EXPECT_EQ(streams[holder].done.at("ok").as_int(), 1);
  EXPECT_EQ(streams[filler].done.at("ok").as_int(), 3);

  // Stats counters are bumped after the done frame goes out, so read
  // them only after the shutdown drain has retired every point.
  ts.shutdown_via(client);
  const serve::ServeStats stats = ts.stats();
  EXPECT_EQ(stats.rejected_full, 2u);
  EXPECT_EQ(stats.points_ok, 4u);
}

// ---------- streaming ----------

TEST(ServeStream, ConcurrentClientsReceiveOnlyTheirOwnResults) {
  TestServer ts("isolation", /*workers=*/4, /*capacity=*/64);
  constexpr int kClients = 3;
  const std::vector<double> rates = {10.0, 20.0, 30.0};

  std::vector<std::thread> clients;
  std::vector<std::string> errors(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      serve::Client client = ts.connect();
      const Json response = client.submit(
          quick_campaign("client" + std::to_string(i), rates));
      if (response.at("status").as_string() != "ok") {
        errors[i] = response.dump();
        return;
      }
      // collect_jobs itself fails the test on any frame for a job this
      // client did not submit — the isolation property under test.
      JobStream stream = stream_job(client, response.at("job").as_string());
      if (stream.results.size() != rates.size()) {
        errors[i] = "expected 3 results, got " +
                    std::to_string(stream.results.size());
        return;
      }
      std::set<std::string> keys;
      for (const Json& frame : stream.results) {
        if (frame.at("status").as_string() != "ok")
          errors[i] = "point not ok: " + frame.dump();
        keys.insert(frame.at("key").as_string());
      }
      for (const double r : rates) {
        const std::string key = "traffic.rate_bps=" + Json(r).dump();
        if (keys.count(key) == 0) errors[i] = "missing key " + key;
      }
      if (stream.done.at("ok").as_int() != 3)
        errors[i] = "done: " + stream.done.dump();
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i)
    EXPECT_EQ(errors[i], "") << "client " << i;

  serve::Client client = ts.connect();
  ts.shutdown_via(client);
}

// ---------- equivalence ----------

TEST(ServeEquivalence, ServedReportIsByteIdenticalToDirectRun) {
  const Json doc = quick_scenario("equivalence");
  const Json direct = scenario::run_scenario(scenario::parse_scenario(doc));

  TestServer ts("equivalence");
  serve::Client client = ts.connect();
  const Json response = client.submit(doc);
  ASSERT_EQ(response.at("status").as_string(), "ok");
  JobStream stream = stream_job(client, response.at("job").as_string());
  ASSERT_EQ(stream.results.size(), 1u);
  EXPECT_EQ(stream.results[0].at("status").as_string(), "ok");
  // record_perf false zeroes the wall-clock fields on both paths, so
  // the served report must match the direct run byte for byte.
  EXPECT_EQ(stream.results[0].at("report").dump(2), direct.dump(2));
  EXPECT_EQ(stream.results[0].at("point_wall_ms").as_double(), 0.0);
  ts.shutdown_via(client);
}

TEST(ServeEquivalence, CampaignRecordsMatchLocalRunner) {
  // One worker on both sides, so both executors finish the points in
  // expansion order and append the same lines in the same order.
  const Json doc = quick_campaign("executors", {10, 20, 30});
  const std::string local =
      (fs::temp_directory_path() /
       ("mhp_serve_" + std::to_string(::getpid()) + "_executors.local"))
          .string();
  fs::remove_all(local);
  const scenario::CampaignResult ran = scenario::run_campaign(
      scenario::parse_campaign(doc, nullptr), local, 1, nullptr);
  ASSERT_EQ(ran.ok, 3u);

  TestServer ts("executors", /*workers=*/1);
  serve::Client client = ts.connect();
  const Json response = client.submit(doc);
  ASSERT_EQ(response.at("status").as_string(), "ok");
  const std::string dir = response.at("dir").as_string();
  // The directory name hashes the canonical submission: a moved byte
  // would strand every job recorded before it.
  EXPECT_EQ(fs::path(dir).filename().string(), "executors-09f3c9730bb64248");
  JobStream stream = stream_job(client, response.at("job").as_string());
  EXPECT_EQ(stream.done.at("ok").as_int(), 3);
  ts.shutdown_via(client);

  for (const char* file : {"results.jsonl", "manifest.jsonl", "summary.json"}) {
    const std::string served = read_file(dir + "/" + file);
    EXPECT_FALSE(served.empty()) << file;
    EXPECT_EQ(served, read_file(local + "/" + file)) << file;
  }
  fs::remove_all(local);
}

// ---------- cancel ----------

TEST(ServeCancel, CancelSkipsPendingPointsWithoutManifestLines) {
  std::counting_semaphore<64> gate(0);
  std::latch first_point_running(1);
  std::atomic<bool> counted{false};
  TestServer ts("cancel", /*workers=*/1, /*capacity=*/16, [&] {
    if (!counted.exchange(true)) first_point_running.count_down();
    gate.acquire();
  });
  serve::Client client = ts.connect();

  const Json response =
      client.submit(quick_campaign("cancellable", {10, 20, 30}));
  ASSERT_EQ(response.at("status").as_string(), "ok");
  const std::string job = response.at("job").as_string();
  const std::string dir = response.at("dir").as_string();

  // The first point is provably past its cancel check (it is inside the
  // gate); the other two have not started and must be skipped.
  first_point_running.wait();
  const Json cancel = client.request(
      Json::object().set("op", Json("cancel")).set("job", Json(job)));
  EXPECT_EQ(cancel.at("status").as_string(), "ok");
  gate.release(3);

  JobStream stream = stream_job(client, job);
  EXPECT_EQ(stream.done.at("ok").as_int(), 1);
  EXPECT_EQ(stream.done.at("cancelled").as_int(), 2);
  // Cancelled points leave no manifest lines, so a resubmission reruns
  // exactly those two.
  EXPECT_EQ(count_lines(dir + "/manifest.jsonl"), 1u);
  ts.shutdown_via(client);
}

// ---------- durability ----------

TEST(ServeDurability, DrainAndShutdownFlushManifestsAndSummary) {
  TestServer ts("drain");
  serve::Client client = ts.connect();
  const Json response =
      client.submit(quick_campaign("drained", {10, 20, 30, 40}));
  ASSERT_EQ(response.at("status").as_string(), "ok");
  const std::string dir = response.at("dir").as_string();

  // Drain blocks until every admitted point has finished and flushed.
  const Json drained =
      client.request(Json::object().set("op", Json("drain")));
  EXPECT_EQ(drained.at("status").as_string(), "ok");
  EXPECT_EQ(count_lines(dir + "/manifest.jsonl"), 4u);
  EXPECT_EQ(count_lines(dir + "/results.jsonl"), 4u);

  // A draining server refuses new work rather than queueing it.
  const Json refused = client.submit(quick_scenario("late"));
  EXPECT_EQ(refused.at("status").as_string(), "draining");

  // The frames are still streamable after the drain response.
  JobStream stream = stream_job(client, response.at("job").as_string());
  EXPECT_EQ(stream.done.at("ok").as_int(), 4);

  ts.shutdown_via(client);
  EXPECT_TRUE(fs::exists(dir + "/summary.json"));
  const Json summary = obs::parse_json(read_file(dir + "/summary.json"));
  EXPECT_EQ(summary.at("report").at("points").at("ok").as_int(), 4);
  // The socket file is gone after a graceful shutdown.
  EXPECT_FALSE(fs::exists(ts.socket_path()));
}

TEST(ServeDurability, RestartResumesFromManifestAndReplaysReports) {
  const std::string root =
      (fs::temp_directory_path() /
       ("mhp_serve_" + std::to_string(::getpid()) + "_restart.jobs"))
          .string();
  fs::remove_all(root);
  const Json doc = quick_campaign("restartable", {10, 20, 30, 40});

  std::string dir;
  {
    TestServer first("restart_a", 2, 64, {}, root);
    serve::Client client = first.connect();
    const Json response = client.submit(doc);
    ASSERT_EQ(response.at("status").as_string(), "ok");
    dir = response.at("dir").as_string();
    JobStream stream = stream_job(client, response.at("job").as_string());
    EXPECT_EQ(stream.done.at("ok").as_int(), 4);
    first.shutdown_via(client);
  }

  // A fresh server process over the same root: the identical document
  // lands in the same durable directory and resumes from its manifest —
  // nothing reruns, every report is replayed from the stored results.
  {
    TestServer second("restart_b", 2, 64, {}, root);
    serve::Client client = second.connect();
    const Json response = client.submit(doc);
    ASSERT_EQ(response.at("status").as_string(), "ok");
    EXPECT_EQ(response.at("dir").as_string(), dir);
    EXPECT_EQ(response.at("skipped").as_int(), 4);
    JobStream stream = stream_job(client, response.at("job").as_string());
    EXPECT_EQ(stream.done.at("skipped").as_int(), 4);
    EXPECT_EQ(stream.done.at("ok").as_int(), 0);
    ASSERT_EQ(stream.results.size(), 4u);
    for (const Json& frame : stream.results) {
      EXPECT_EQ(frame.at("status").as_string(), "skipped");
      EXPECT_NE(frame.find("report"), nullptr)
          << "skipped points replay their stored report";
    }
    EXPECT_EQ(count_lines(dir + "/results.jsonl"), 4u);
    const serve::ServeStats stats = second.stats();
    EXPECT_EQ(stats.points_skipped, 4u);
    EXPECT_EQ(stats.points_ok, 0u);
    second.shutdown_via(client);
  }
  fs::remove_all(root);
}

TEST(ServeDurability, SameSubmissionTwiceConcurrentlyIsBusyNotDuplicated) {
  std::counting_semaphore<64> gate(0);
  TestServer ts("busy", /*workers=*/1, /*capacity=*/16,
                [&] { gate.acquire(); });
  serve::Client client = ts.connect();
  const Json doc = quick_scenario("dup");
  const Json first = client.submit(doc);
  ASSERT_EQ(first.at("status").as_string(), "ok");
  const Json second = client.submit(doc);
  EXPECT_EQ(second.at("status").as_string(), "busy");
  gate.release(1);
  JobStream stream = stream_job(client, first.at("job").as_string());
  EXPECT_EQ(stream.done.at("ok").as_int(), 1);
  ts.shutdown_via(client);
}

// ---------- request line cap ----------

TEST(ServeRobustness, OversizedRequestLineIsBadRequestAndClosed) {
  TestServer ts("oversize");
  {
    // A line at the cap is read whole: not JSON, so bad_request, and the
    // connection keeps serving.
    serve::Socket raw = serve::connect_unix(ts.socket_path());
    ASSERT_TRUE(raw.send_line(std::string(serve::kMaxRequestLineBytes, ' ')));
    ASSERT_TRUE(raw.send_line(R"({"op":"status"})"));
    serve::LineReader reader(raw.fd());
    const auto rejected = reader.next();
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(obs::parse_json(*rejected).at("status").as_string(),
              "bad_request");
    const auto status = reader.next();
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(obs::parse_json(*status).at("status").as_string(), "ok");
  }
  {
    // One byte more: the server stops reading, answers bad_request and
    // closes, so the rest of the send fails instead of blocking.  The
    // receive timeout turns a server that never closes into a failure
    // rather than a hang.
    serve::Socket raw = serve::connect_unix(ts.socket_path());
    const timeval limit{10, 0};
    ASSERT_EQ(::setsockopt(raw.fd(), SOL_SOCKET, SO_RCVTIMEO, &limit,
                           sizeof(limit)),
              0);
    raw.send_line(std::string(serve::kMaxRequestLineBytes + 1, ' '));
    serve::LineReader reader(raw.fd());
    const auto rejected = reader.next();
    ASSERT_TRUE(rejected.has_value());
    const Json frame = obs::parse_json(*rejected);
    EXPECT_EQ(frame.at("status").as_string(), "bad_request");
    EXPECT_NE(frame.at("error").as_string().find("request line longer"),
              std::string::npos);
    EXPECT_FALSE(reader.next().has_value());
  }
  // The daemon itself is unaffected.
  serve::Client client = ts.connect();
  EXPECT_EQ(client.request(Json::object().set("op", Json("status")))
                .at("status")
                .as_string(),
            "ok");
  ts.shutdown_via(client);
}

TEST(ServeRobustness, DeeplyNestedRequestIsBadRequestAndServingGoesOn) {
  TestServer ts("deep");
  serve::Socket raw = serve::connect_unix(ts.socket_path());
  // 100 000 levels: an uncapped recursive parser overflows its stack.
  ASSERT_TRUE(raw.send_line(std::string(100000, '[')));
  ASSERT_TRUE(raw.send_line(R"({"op":"status"})"));
  serve::LineReader reader(raw.fd());
  const auto rejected = reader.next();
  ASSERT_TRUE(rejected.has_value());
  const Json frame = obs::parse_json(*rejected);
  EXPECT_EQ(frame.at("status").as_string(), "bad_request");
  EXPECT_NE(frame.at("error").as_string().find("nesting deeper than"),
            std::string::npos);
  const auto status = reader.next();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(obs::parse_json(*status).at("status").as_string(), "ok");

  serve::Client client = ts.connect();
  ts.shutdown_via(client);
}

/// Descriptors this process holds open.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

const Json kStatus = Json::object().set("op", Json("status"));

TEST(ServeRobustness, ClosedConnectionsGiveTheirDescriptorsBack) {
  TestServer ts("fdreap");
  {
    serve::Client first = ts.connect();  // settle one-time allocations
    ASSERT_EQ(first.request(kStatus).at("status").as_string(), "ok");
  }
  const std::size_t before = open_fds();
  for (int i = 0; i < 1000; ++i) {
    serve::Client client = ts.connect();
    ASSERT_EQ(client.request(kStatus).at("status").as_string(), "ok")
        << "connection " << i;
  }
  // Finished jobs give back their client socket and output files too.
  for (int i = 0; i < 20; ++i) {
    serve::Client client = ts.connect();
    const Json response = client.submit(quick_scenario("fd" + std::to_string(i)));
    ASSERT_EQ(response.at("status").as_string(), "ok") << "submission " << i;
    EXPECT_EQ(stream_job(client, response.at("job").as_string())
                  .done.at("ok")
                  .as_int(),
              1);
  }
  // The accept loop reaps finished connections at least once per poll
  // interval; give it a few.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (open_fds() > before + 4 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(open_fds(), before + 4);

  serve::Client client = ts.connect();
  EXPECT_EQ(client.request(kStatus).at("status").as_string(), "ok");
  ts.shutdown_via(client);
}

TEST(ServeRobustness, AcceptBacksOffWhenOutOfDescriptors) {
  TestServer ts("emfile");
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // Leave exactly one descriptor free: cap the numbers just above the
  // highest one in use and fill every free number below the cap.  The
  // client's socket takes the free one, so the server's accept() of that
  // connection fails with EMFILE while the listener stays readable.
  int highest = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd"))
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(highest) + 2;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) fillers.push_back(fd);
  EXPECT_EQ(errno, EMFILE);
  ASSERT_FALSE(fillers.empty());
  ::close(fillers.back());
  fillers.pop_back();
  double spent = 0;
  {
    serve::Socket raw = serve::connect_unix(ts.socket_path());
    ASSERT_TRUE(raw.valid());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const double t0 = process_cpu_s();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    spent = process_cpu_s() - t0;
  }
  for (const int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  // A loop that retried accept() at once would burn a core for the
  // whole half second.
  EXPECT_LT(spent, 0.15);

  serve::Client client = ts.connect();
  EXPECT_EQ(client.request(kStatus).at("status").as_string(), "ok");
  ts.shutdown_via(client);
}

TEST(ServeRobustness, FinishedJobHistoryIsBounded) {
  TestServer ts("history");
  serve::Client client = ts.connect();
  constexpr std::size_t kExtra = 5;
  std::string first_job;
  for (std::size_t i = 0; i < serve::kFinishedJobHistory + kExtra; ++i) {
    const Json response =
        client.submit(quick_scenario("hist" + std::to_string(i)));
    ASSERT_EQ(response.at("status").as_string(), "ok") << "submission " << i;
    const std::string job = response.at("job").as_string();
    if (i == 0) first_job = job;
    ASSERT_EQ(stream_job(client, job).done.at("ok").as_int(), 1);
  }

  const Json status = client.request(kStatus);
  EXPECT_LE(status.at("jobs").size(), serve::kFinishedJobHistory);
  EXPECT_EQ(status.at("stats").at("jobs_evicted").as_uint(), kExtra);
  for (std::size_t i = 0; i < status.at("jobs").size(); ++i)
    EXPECT_NE(status.at("jobs").at(i).at("job").as_string(), first_job);

  // A dropped job is gone from memory only: cancel no longer knows it,
  // and resubmitting it resumes from its manifest on disk.
  const Json cancel = client.request(
      Json::object().set("op", Json("cancel")).set("job", Json(first_job)));
  EXPECT_EQ(cancel.at("status").as_string(), "unknown_job");
  const Json again = client.submit(quick_scenario("hist0"));
  ASSERT_EQ(again.at("status").as_string(), "ok");
  EXPECT_EQ(again.at("skipped").as_int(), 1);
  EXPECT_EQ(stream_job(client, again.at("job").as_string())
                .done.at("skipped")
                .as_int(),
            1);
  ts.shutdown_via(client);
}

}  // namespace
}  // namespace mhp
