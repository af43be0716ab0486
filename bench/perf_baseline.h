// Recorded hot-path baseline for bench/perf_core. Regenerate with
//   cmake --build build --target bench-record
// (or perf_core --baseline-header bench/perf_baseline.h --commit <sha>)
// and note the commit it was measured at.

#ifndef JUGGLER_BENCH_PERF_BASELINE_H_
#define JUGGLER_BENCH_PERF_BASELINE_H_

namespace juggler::perf_baseline {

inline constexpr char kCommit[] = "cee11c3";
inline constexpr double kEventLoopEventsPerSec = 47068459.3;
inline constexpr double kTimerChurnOpsPerSec = 125491735.4;
inline constexpr double kGroDatapathPacketsPerSec = 70407684.6;

// Heap-era reference (binary-heap timers, per-packet dispatch,
// per-MTU heap allocation), measured at commit bb7f1e8.
inline constexpr char kHeapEraCommit[] = "bb7f1e8";
inline constexpr double kHeapEraEventLoopEventsPerSec = 14268317.0;
inline constexpr double kHeapEraTimerChurnOpsPerSec = 18594931.0;
inline constexpr double kHeapEraGroDatapathPacketsPerSec = 19435172.0;

}  // namespace juggler::perf_baseline

#endif  // JUGGLER_BENCH_PERF_BASELINE_H_
