// Parameter-sweep harness shared by the benchmark binaries: run one
// function per sweep point across a thread pool, collecting results in
// point order so tables are deterministic regardless of scheduling.
#pragma once

#include <functional>
#include <vector>

#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace mhp::exp {

template <typename Point, typename Result>
std::vector<Result> sweep(const std::vector<Point>& points,
                          const std::function<Result(const Point&)>& fn,
                          std::size_t workers = 0) {
  std::vector<Result> results(points.size());
  ThreadPool pool(workers);
  pool.parallel_for(points.size(), [&](std::size_t i) {
    MHP_SPAN("sweep/point");
    results[i] = fn(points[i]);
  });
  return results;
}

}  // namespace mhp::exp
