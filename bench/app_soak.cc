// Application-resilience soak: the app layer's acceptance run.
//
// The full stack matrix — {juggler, vanilla, presto} receive paths x
// {rpc, bulk-transfer, incast, replication} workloads — under mixed fault
// pressure, 8 seeds per cell. Every cell must end with zero auditor
// violations and zero hung requests: whatever the reordering/fault regime
// does to the wire, every issued request reaches an explicit Ok / Timeout /
// Aborted outcome and the server executes each logical request effectively
// once. A second pass pins determinism: same (stack, workload, seed) twice,
// bit-identical digests, with the retry machinery demonstrably engaged
// (link flaps against a short attempt timeout).
//
// Cells are independent, so they run on the parallel sweep runner; results
// aggregate in sequential order, byte-identical to a sequential loop.

#include "bench/bench_common.h"
#include "src/scenario/chaos_scenario.h"
#include "src/sim/sweep_runner.h"

namespace juggler {
namespace {

constexpr int kSeeds = 8;

const StackKind kStacks[] = {StackKind::kJuggler, StackKind::kVanilla, StackKind::kPresto};
const AppWorkloadKind kWorkloads[] = {
    AppWorkloadKind::kRpc,
    AppWorkloadKind::kBulkTransfer,
    AppWorkloadKind::kIncast,
    AppWorkloadKind::kReplication,
};
constexpr size_t kNumStacks = sizeof(kStacks) / sizeof(kStacks[0]);
constexpr size_t kNumWorkloads = sizeof(kWorkloads) / sizeof(kWorkloads[0]);

AppWorkloadOptions Workload(AppWorkloadKind kind) {
  AppWorkloadOptions app;
  app.kind = kind;
  app.sessions = kind == AppWorkloadKind::kReplication ? 3 : 2;
  app.requests_per_session = 6;
  app.response_bytes = 12'288;
  app.chunk_bytes = 49'152;
  app.transfer_bytes_per_session = 3 * app.chunk_bytes;
  return app;
}

int Run() {
  PrintHeader("app resilience soak",
              "3 stacks x 4 app workloads x 8 seeds under mixed faults; oracle:\n"
              "zero auditor violations, zero hung requests, every request at an\n"
              "explicit terminal outcome; then determinism under forced retries");

  std::printf("%-8s %-14s %6s %8s %8s %8s %8s %8s %8s %10s\n", "stack", "workload", "runs",
              "issued", "ok", "timeout", "aborted", "retries", "dedup", "violations");

  // One point per (stack, workload, seed), stack-major then workload-major,
  // so aggregation walks results in table order.
  const size_t total = kNumStacks * kNumWorkloads * kSeeds;
  const std::vector<ChaosEngineResult> results = RunSweep(total, [](size_t i) {
    ChaosOptions opt;
    opt.seed = 1 + static_cast<uint64_t>(i % kSeeds);
    opt.family = FaultFamily::kMixed;
    opt.app = Workload(kWorkloads[(i / kSeeds) % kNumWorkloads]);
    return RunChaosEngine(opt, kStacks[i / (kSeeds * kNumWorkloads)]);
  });

  int failures = 0;
  for (size_t st = 0; st < kNumStacks; ++st) {
    for (size_t w = 0; w < kNumWorkloads; ++w) {
      AppStats agg;
      uint64_t violations = 0;
      for (int s = 0; s < kSeeds; ++s) {
        const ChaosEngineResult& r = results[(st * kNumWorkloads + w) * kSeeds + s];
        agg.MergeFrom(r.app);
        violations += r.violations;
        if (r.violations != 0 || !r.completed || r.app.forced_terminal != 0) {
          ++failures;
          std::printf("  FAIL %s/%s seed=%d: %s\n", StackKindName(kStacks[st]),
                      AppWorkloadKindName(kWorkloads[w]), 1 + s,
                      r.violation_messages.empty() ? "hung requests"
                                                   : r.violation_messages.front().c_str());
        }
      }
      std::printf("%-8s %-14s %6d %8llu %8llu %8llu %8llu %8llu %8llu %10llu\n",
                  StackKindName(kStacks[st]), AppWorkloadKindName(kWorkloads[w]), kSeeds,
                  static_cast<unsigned long long>(agg.issued),
                  static_cast<unsigned long long>(agg.ok),
                  static_cast<unsigned long long>(agg.timeouts),
                  static_cast<unsigned long long>(agg.aborted),
                  static_cast<unsigned long long>(agg.retries),
                  static_cast<unsigned long long>(agg.duplicates_suppressed),
                  static_cast<unsigned long long>(violations));
    }
  }

  std::printf("\ndeterminism under forced retries: link flaps vs a 2ms attempt\n"
              "timeout, same run twice, digests must match and retries must fire\n");
  std::printf("%-14s %18s %18s %8s  %s\n", "workload", "digest_run1", "digest_run2", "retries",
              "match");
  struct Pair {
    ChaosEngineResult r1;
    ChaosEngineResult r2;
  };
  const std::vector<Pair> pairs = RunSweep(kNumWorkloads, [](size_t w) {
    ChaosOptions opt;
    opt.seed = 7;
    opt.family = FaultFamily::kLinkFlap;
    opt.app = Workload(kWorkloads[w]);
    opt.app.retry.attempt_timeout = Ms(2);
    Pair pair;
    pair.r1 = RunChaosEngine(opt, StackKind::kJuggler);
    pair.r2 = RunChaosEngine(opt, StackKind::kJuggler);
    return pair;
  });
  uint64_t total_retries = 0;
  for (size_t w = 0; w < kNumWorkloads; ++w) {
    const Pair& pair = pairs[w];
    const bool match = pair.r1.digest == pair.r2.digest;
    if (!match) {
      ++failures;
    }
    total_retries += pair.r1.app.retries;
    std::printf("%-14s %018llx %018llx %8llu  %s\n", AppWorkloadKindName(kWorkloads[w]),
                static_cast<unsigned long long>(pair.r1.digest),
                static_cast<unsigned long long>(pair.r2.digest),
                static_cast<unsigned long long>(pair.r1.app.retries), match ? "yes" : "NO");
  }
  if (total_retries == 0) {
    // Retries never firing would make the matrix vacuous.
    std::printf("  FAIL: no retries across the forced-retry pass\n");
    ++failures;
  }

  std::printf("\n%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace juggler

int main() { return juggler::Run(); }
