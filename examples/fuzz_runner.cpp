// Self-driving chaos fuzzer: randomized ScenarioSpecs, each executed in a
// watchdogged child, failures classified, deduped, delta-debugged down to a
// minimal spec and written out as a replayable repro bundle.
//
// Usage:
//   ./build/examples/fuzz_runner                          # 20 specs, seed 1
//   ./build/examples/fuzz_runner --specs 100 --seed 7
//   ./build/examples/fuzz_runner --out repro/             # write bundles
//   ./build/examples/fuzz_runner --budget-ms 30000        # stop after 30s
//   ./build/examples/fuzz_runner --timeout-ms 10000       # per-child watchdog
//   ./build/examples/fuzz_runner --no-shrink
//   ./build/examples/fuzz_runner --no-obs                 # skip trace attachments
//
// Bundles for cooperative failures (invariant violation, exception) carry a
// flight-recorder attachment — metrics snapshot plus a Chrome/Perfetto trace
// of the shrunk spec — unless --no-obs is given.
//
// Exit status: 0 when every spec ran clean, 1 when any finding was made.
// Replay a bundle with: ./build/examples/replay_runner --bundle <file>.json

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "examples/runner_args.h"
#include "src/forensics/fuzz_supervisor.h"

using namespace juggler;

int main(int argc, char** argv) {
  FuzzOptions opt;
  opt.verbose = true;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) { return NextArg(argc, argv, &i, flag); };
    auto count = [&](const char* flag) { return ParseCount(flag, next(flag)); };
    if (std::strcmp(argv[i], "--specs") == 0) {
      opt.num_specs = count("--specs");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = ParseU64("--seed", next("--seed"));
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      opt.timeout_ms = count("--timeout-ms");
    } else if (std::strcmp(argv[i], "--budget-ms") == 0) {
      opt.time_budget_ms = count("--budget-ms");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opt.out_dir = next("--out");
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      opt.shrink = false;
    } else if (std::strcmp(argv[i], "--no-obs") == 0) {
      opt.attach_obs = false;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      opt.verbose = false;
    } else if (std::strcmp(argv[i], "--app-prob") == 0) {
      opt.limits.app_prob = ParseProbability("--app-prob", next("--app-prob"));
    } else if (std::strcmp(argv[i], "--overload-prob") == 0) {
      opt.limits.overload_prob = ParseProbability("--overload-prob", next("--overload-prob"));
    } else if (std::strcmp(argv[i], "--plant-app-stale-token") == 0) {
      opt.plant_app_stale_token = true;  // validates the app forensics path
    } else {
      std::fprintf(stderr,
                   "usage: %s [--specs N] [--seed S] [--timeout-ms T] [--budget-ms B]\n"
                   "          [--out DIR] [--app-prob P] [--overload-prob P]\n"
                   "          [--plant-app-stale-token] [--no-shrink] [--no-obs] [--quiet]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("fuzz: %d specs, seed %llu, %dms watchdog%s\n", opt.num_specs,
              static_cast<unsigned long long>(opt.seed), opt.timeout_ms,
              opt.out_dir.empty() ? "" : (", bundles -> " + opt.out_dir).c_str());

  const FuzzReport report = RunFuzz(opt);

  std::printf("\n%d specs run, %d failing, %zu distinct finding(s)\n", report.specs_run,
              report.failures, report.findings.size());
  for (const FuzzFinding& f : report.findings) {
    std::printf("  [%016llx] %s: %s\n",
                static_cast<unsigned long long>(f.signature.fingerprint),
                SignatureKindName(f.signature.kind), f.signature.detail.c_str());
    std::printf("      found at spec #%d (family=%s seed=%llu); shrink accepted %d/%d,"
                " timeline %zu event(s)\n",
                f.spec_index, FaultFamilyName(f.spec.family),
                static_cast<unsigned long long>(f.spec.seed), f.shrink_accepted, f.shrink_runs,
                f.shrunk.TimelineEvents());
    if (!f.bundle_path.empty()) {
      std::printf("      bundle: %s\n", f.bundle_path.c_str());
    }
  }
  std::printf("%s\n", report.findings.empty() ? "PASS" : "FAIL");
  return report.findings.empty() ? 0 : 1;
}
