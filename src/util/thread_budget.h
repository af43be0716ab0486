// Process-wide worker-thread budget.
//
// Every component that spins up worker threads — the sweep runner fanning
// out independent simulation points — draws from this one budget, so nested
// parallel sweeps degrade gracefully instead of oversubscribing the machine:
// the outer layer takes what it needs, inner layers see what is left (never
// less than their own calling thread). Each simulation point itself runs on
// one thread.
//
// The total is `JUGGLER_THREADS` when set (>=1), else the hardware
// concurrency. Acquire/Release count *concurrently executing* workers: a
// caller that parks while its pool drains should acquire only the pool size.

#ifndef JUGGLER_SRC_UTIL_THREAD_BUDGET_H_
#define JUGGLER_SRC_UTIL_THREAD_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <thread>

namespace juggler {

class ThreadBudget {
 public:
  // Total concurrent workers the process should run: the JUGGLER_THREADS
  // env override when parseable and >= 1, else std::thread::hardware_concurrency
  // (itself clamped to >= 1). Re-read on every call so tests can setenv.
  static size_t Total() {
    if (const char* env = std::getenv("JUGGLER_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1) {
        return static_cast<size_t>(v);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

  // Reserve up to `want` worker slots. Returns the grant, in [1, want] for
  // want >= 1: a caller can always run on its own thread, even when the
  // budget is exhausted by outer layers, so nested parallelism degrades to
  // sequential instead of deadlocking or oversubscribing further.
  static size_t Acquire(size_t want) {
    if (want == 0) {
      return 0;
    }
    const size_t total = Total();
    size_t used = in_use_.load(std::memory_order_relaxed);
    for (;;) {
      const size_t available = total > used ? total - used : 0;
      size_t grant = want < available ? want : available;
      if (grant == 0) {
        grant = 1;  // the caller's own thread
      }
      if (in_use_.compare_exchange_weak(used, used + grant, std::memory_order_relaxed)) {
        return grant;
      }
    }
  }

  // Return a previous grant (pass exactly what Acquire returned).
  static void Release(size_t granted) {
    in_use_.fetch_sub(granted, std::memory_order_relaxed);
  }

  // Currently reserved workers (diagnostics/tests).
  static size_t InUse() { return in_use_.load(std::memory_order_relaxed); }

 private:
  static inline std::atomic<size_t> in_use_{0};
};

}  // namespace juggler

#endif  // JUGGLER_SRC_UTIL_THREAD_BUDGET_H_
