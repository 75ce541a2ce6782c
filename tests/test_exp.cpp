// Experiment harness: sweeps must be deterministic regardless of worker
// count (per-point seeds, ordered results).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "core/routing.hpp"
#include "exp/flags.hpp"
#include "exp/sweep.hpp"
#include "net/deployment.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

TEST(Sweep, ResultsInPointOrder) {
  std::vector<int> points{5, 3, 9, 1};
  const auto results = mhp::exp::sweep<int, int>(
      points, std::function<int(const int&)>([](const int& p) {
        return p * 10;
      }),
      2);
  EXPECT_EQ(results, (std::vector<int>{50, 30, 90, 10}));
}

TEST(Sweep, WorkerCountDoesNotChangeResults) {
  std::vector<std::uint64_t> points(40);
  for (std::size_t i = 0; i < points.size(); ++i) points[i] = i;
  auto fn = std::function<double(const std::uint64_t&)>(
      [](const std::uint64_t& seed) {
        Rng rng(seed);  // per-point seed: identical on any worker
        double acc = 0.0;
        for (int k = 0; k < 100; ++k) acc += rng.uniform();
        return acc;
      });
  const auto serial = mhp::exp::sweep<std::uint64_t, double>(points, fn, 1);
  const auto wide = mhp::exp::sweep<std::uint64_t, double>(points, fn, 8);
  EXPECT_EQ(serial, wide);
}

TEST(Sweep, FixedSeedSweepIsByteIdenticalAcrossWorkerCounts) {
  // Serialise every result to full precision: the bytes — not just the
  // rounded values — must match whatever the parallelism.
  std::vector<std::uint64_t> points(32);
  for (std::size_t i = 0; i < points.size(); ++i) points[i] = 7 * i + 1;
  auto fn = std::function<std::string(const std::uint64_t&)>(
      [](const std::uint64_t& seed) {
        Rng rng(seed);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%llu", rng.uniform(),
                      rng.exponential(3.0),
                      static_cast<unsigned long long>(rng.below(1000)));
        return std::string(buf);
      });
  std::string blobs[3];
  std::size_t w = 0;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto results =
        mhp::exp::sweep<std::uint64_t, std::string>(points, fn, workers);
    for (const auto& r : results) blobs[w] += r + "\n";
    ++w;
  }
  EXPECT_EQ(blobs[0], blobs[1]);
  EXPECT_EQ(blobs[0], blobs[2]);
}

TEST(Sweep, EmptyPoints) {
  const auto results = mhp::exp::sweep<int, int>(
      {}, std::function<int(const int&)>([](const int&) { return 0; }));
  EXPECT_TRUE(results.empty());
}

TEST(Sweep, PerfScalingWorkloadIsDeterministicAcrossWorkers) {
  // The perf_scaling bench's per-point pipeline (fixed-seed deployment →
  // grid topology → min-max-load routing) must digest identically with
  // one worker and eight: grid construction and the flow solver are pure
  // functions of the point, and each point reseeds its own Rng.
  const std::vector<std::size_t> points{50, 200};
  auto fn = std::function<std::string(const std::size_t&)>(
      [](const std::size_t& n) {
        Rng rng(0x9e1f + n);
        const double side = std::sqrt(1000.0 * static_cast<double>(n));
        const Deployment dep =
            deploy_connected_uniform_square(n, side, 60.0, rng);
        const ClusterTopology topo = disc_topology(dep, 60.0);
        const std::vector<std::int64_t> demand(n, 1);
        const RelayPlan plan = RelayPlan::balanced(topo, demand);
        std::string digest = std::to_string(topo.sensor_links().edge_count());
        digest += '|';
        digest += std::to_string(plan.max_load());
        for (NodeId s = 0; s < n; ++s)
          for (const NodeId hop : plan.path_for_cycle(s, 0).hops) {
            digest += ',';
            digest += std::to_string(hop);
          }
        return digest;
      });
  const auto serial =
      mhp::exp::sweep<std::size_t, std::string>(points, fn, 1);
  const auto wide = mhp::exp::sweep<std::size_t, std::string>(points, fn, 8);
  EXPECT_EQ(serial, wide);
}

TEST(Sweep, ExceptionPropagates) {
  std::vector<int> points{1, 2, 3};
  EXPECT_THROW(
      (mhp::exp::sweep<int, int>(points,
                                 std::function<int(const int&)>(
                                     [](const int& p) -> int {
                                       if (p == 2)
                                         throw std::runtime_error("boom");
                                       return p;
                                     }),
                                 2)),
      std::runtime_error);
}

// ---------- Flags::count_value ----------

mhp::exp::Flags workers_flags(std::vector<const char*> argv) {
  mhp::exp::Flags flags("test");
  flags.option("--workers", "N", "worker count");
  argv.insert(argv.begin(), "prog");
  flags.parse(static_cast<int>(argv.size()),
              const_cast<char**>(argv.data()));
  return flags;
}

TEST(Flags, CountValueParsesDigitsAndFallsBack) {
  EXPECT_EQ(workers_flags({"--workers", "8"}).count_value("--workers", 0),
            8u);
  EXPECT_EQ(workers_flags({"--workers=0"}).count_value("--workers", 3), 0u);
  EXPECT_EQ(workers_flags({}).count_value("--workers", 5), 5u);
}

// Regression: mhp_run used std::stoul on --workers, so "--workers abc"
// crashed with an uncaught std::invalid_argument instead of the usage +
// exit 2 every other flag error produces.  count_value is the strict
// parser path both the single-run and --campaign sites now use.
TEST(FlagsDeath, NonNumericCountValueIsUsageError) {
  auto flags = workers_flags({"--workers", "abc"});
  EXPECT_EXIT(flags.count_value("--workers", 0),
              testing::ExitedWithCode(2), "non-negative integer");
}

TEST(FlagsDeath, NegativeCountValueIsUsageError) {
  auto flags = workers_flags({"--workers", "-2"});
  EXPECT_EXIT(flags.count_value("--workers", 0),
              testing::ExitedWithCode(2), "non-negative integer");
}

TEST(FlagsDeath, OverflowingCountValueIsUsageError) {
  auto flags = workers_flags({"--workers", "99999999999999999999999"});
  EXPECT_EXIT(flags.count_value("--workers", 0),
              testing::ExitedWithCode(2), "too large");
}

}  // namespace
}  // namespace mhp
