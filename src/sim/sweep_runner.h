// Parallel sweep execution for independent simulation points.
//
// Bench sweeps are embarrassingly parallel: each (parameter, seed) point
// builds its own SimWorld, runs it to completion, and reduces to a small
// result struct — no state is shared between points. RunSweep executes those
// points on a worker-thread pool and returns the results in point-index
// order, so callers print tables exactly as the sequential loop did.
//
// Determinism: a point function must build everything it simulates locally
// (its own EventLoop, factories, RNGs seeded from the point index). Worker
// threads claim points dynamically, so WHICH thread runs a point varies
// between invocations — but since each point is self-contained and packet
// recycling is per-thread (PacketPool::ThreadLocal), a point's result is a
// pure function of its index. Same inputs, same results, any thread count.

#ifndef JUGGLER_SRC_SIM_SWEEP_RUNNER_H_
#define JUGGLER_SRC_SIM_SWEEP_RUNNER_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/thread_budget.h"

namespace juggler {

// Worker count used when `num_threads` is 0: the process thread budget
// (JUGGLER_THREADS override, else hardware concurrency), bounded so a sweep
// of N points never spawns idle threads.
size_t SweepWorkerCount(size_t num_points, size_t num_threads);

// Runs `point_fn(i)` for i in [0, num_points) across `num_threads` workers
// (0 = one per budgeted thread) and returns the results indexed by point.
// The worker count is drawn from the shared ThreadBudget, so a sweep whose
// points themselves run sweeps degrades to fewer inner workers instead of
// oversubscribing. `point_fn` must be callable concurrently from
// multiple threads; the calling thread is worker 0, so with one worker
// everything runs inline.
template <typename PointFn>
auto RunSweep(size_t num_points, PointFn&& point_fn, size_t num_threads = 0)
    -> std::vector<decltype(point_fn(size_t{0}))> {
  using Result = decltype(point_fn(size_t{0}));
  std::vector<std::optional<Result>> slots(num_points);
  const size_t workers =
      ThreadBudget::Acquire(SweepWorkerCount(num_points, num_threads));

  std::atomic<size_t> next{0};
  auto drain = [&] {
    // Dynamic claiming: long points (high fault rates, slow convergence)
    // don't stall a statically assigned partner.
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < num_points;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      slots[i].emplace(point_fn(i));
    }
  };

  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) {
      pool.emplace_back(drain);
    }
    drain();
    for (auto& t : pool) {
      t.join();
    }
  }
  ThreadBudget::Release(workers);

  std::vector<Result> results;
  results.reserve(num_points);
  for (auto& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace juggler

#endif  // JUGGLER_SRC_SIM_SWEEP_RUNNER_H_
