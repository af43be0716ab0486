// Chaos soak runner: randomized fault timelines against Juggler and the
// baseline stack, differentially, with full invariant checking.
//
// Each run picks a fault family and a seed, composes a random fault
// schedule, and drives the same bulk transfer through both receive paths.
// The run fails if either stack breaks an invariant (bytes lost, duplicated,
// reordered past TCP, gro_table structure corrupted) or the two stacks
// disagree on the delivered byte stream.
//
// Usage:
//   ./build/examples/chaos_runner                    # 5 families x 4 seeds
//   ./build/examples/chaos_runner --seeds 20         # 5 families x 20 seeds
//   ./build/examples/chaos_runner --family corrupt --seeds 8
//   ./build/examples/chaos_runner --base-seed 42 --bytes 3000000
//   ./build/examples/chaos_runner --metrics        # per-run metrics tables
//   ./build/examples/chaos_runner --trace out.json # Chrome/Perfetto trace
//   ./build/examples/chaos_runner --app rpc        # RPC workload w/ retries
//   ./build/examples/chaos_runner --app bulk-transfer --stack presto
//   ./build/examples/chaos_runner --overload       # incast/churn/brownout
//                                                  # pressure + recovery audit
//   ./build/examples/chaos_runner --rx-driver corec  # COREC concurrent
//                                                    # single-queue RX driver
//
// Exit status: 0 when every run is clean, 1 on any violation or mismatch —
// the failing (family, seed) pair printed is a complete repro recipe.
// --trace collects the Juggler engine's flight-recorder events across every
// run into one trace file (load it at ui.perfetto.dev or chrome://tracing).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "examples/runner_args.h"
#include "src/scenario/chaos_scenario.h"

using namespace juggler;

namespace {

const FaultFamily kAllFamilies[] = {
    FaultFamily::kDropBurst, FaultFamily::kDuplicate, FaultFamily::kCorrupt,
    FaultFamily::kDelaySpike, FaultFamily::kLinkFlap,
};

// The detail lines under one result row, from the engine whose counters the
// row reports: app and overload counters, the metrics table, and the trace
// events (appended to `trace`). `stack` names that engine in --stack mode;
// null means the differential pair, whose details are the Juggler engine's.
void PrintRunDetails(const ChaosOptions& opt, const ChaosEngineResult& er, const char* stack,
                     std::vector<TraceEvent>* trace, uint64_t* trace_dropped) {
  const bool tagged = stack != nullptr;
  if (opt.app.enabled()) {
    std::printf("    app[%s%s%s]: %llu issued, %llu ok, %llu timeout, %llu aborted, "
                "%llu retries, %llu dedup\n",
                tagged ? stack : "", tagged ? "/" : "", AppWorkloadKindName(opt.app.kind),
                static_cast<unsigned long long>(er.app.issued),
                static_cast<unsigned long long>(er.app.ok),
                static_cast<unsigned long long>(er.app.timeouts),
                static_cast<unsigned long long>(er.app.aborted),
                static_cast<unsigned long long>(er.app.retries),
                static_cast<unsigned long long>(er.app.duplicates_suppressed));
  }
  if (opt.overload.enabled()) {
    std::printf("    overload%s%s%s: %llu injected, %llu inject-drops, %llu exhausted, "
                "%llu ring-drops, peak pool %llu, leaked %lld\n",
                tagged ? "[" : "", tagged ? stack : "", tagged ? "]" : "",
                static_cast<unsigned long long>(er.overload.injected_packets),
                static_cast<unsigned long long>(er.overload.inject_alloc_drops),
                static_cast<unsigned long long>(er.overload_pool_exhausted),
                static_cast<unsigned long long>(er.overload_ring_drops),
                static_cast<unsigned long long>(er.overload_peak_pool),
                static_cast<long long>(er.overload_pool_leaked));
  }
  if (opt.obs.metrics) {
    if (!tagged) {
      std::printf("  metrics (%s, seed %llu, juggler engine):\n", FaultFamilyName(opt.family),
                  static_cast<unsigned long long>(opt.seed));
    }
    std::printf("%s", er.obs.metrics.ToTable().c_str());
  }
  if (opt.obs.trace) {
    trace->insert(trace->end(), er.obs.events.begin(), er.obs.events.end());
    *trace_dropped += er.obs.trace_dropped;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 4;
  uint64_t base_seed = 1;
  uint64_t bytes = 1'500'000;
  bool metrics = false;
  bool overload = false;
  AppWorkloadKind app_kind = AppWorkloadKind::kNone;
  bool single_stack = false;
  StackKind stack = StackKind::kJuggler;
  RxDriverKind rx_driver = RxDriverKind::kRss;
  std::string trace_path;
  std::vector<FaultFamily> families(std::begin(kAllFamilies), std::end(kAllFamilies));

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) { return NextArg(argc, argv, &i, flag); };
    auto count = [&](const char* flag) { return ParseCount(flag, next(flag)); };
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = next("--trace");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds = count("--seeds");
    } else if (std::strcmp(argv[i], "--base-seed") == 0) {
      base_seed = ParseU64("--base-seed", next("--base-seed"));
    } else if (std::strcmp(argv[i], "--bytes") == 0) {
      bytes = ParseU64("--bytes", next("--bytes"));
      if (bytes == 0) {
        std::fprintf(stderr, "--bytes must be > 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--family") == 0) {
      FaultFamily f;
      if (!ParseFaultFamily(next("--family"), &f)) {
        std::fprintf(stderr, "unknown family (drop-burst duplicate corrupt delay-spike "
                             "link-flap mixed)\n");
        return 2;
      }
      families.assign(1, f);
    } else if (std::strcmp(argv[i], "--app") == 0) {
      if (!ParseAppWorkloadKind(next("--app"), &app_kind) ||
          app_kind == AppWorkloadKind::kNone) {
        std::fprintf(stderr, "unknown app workload (rpc bulk-transfer incast replication)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--stack") == 0) {
      if (!ParseStackKind(next("--stack"), &stack)) {
        std::fprintf(stderr, "unknown stack (juggler vanilla presto)\n");
        return 2;
      }
      single_stack = true;
    } else if (std::strcmp(argv[i], "--rx-driver") == 0) {
      if (!ParseRxDriverKind(next("--rx-driver"), &rx_driver)) {
        std::fprintf(stderr, "unknown rx driver (rss corec)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--seeds N] [--base-seed S] [--bytes B] "
                           "[--family NAME] [--app KIND] [--stack NAME] "
                           "[--rx-driver NAME] [--overload] [--metrics] [--trace FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("chaos soak: %zu families x %d seeds, %llu bytes per run\n\n",
              families.size(), seeds, static_cast<unsigned long long>(bytes));
  std::printf("%-12s %6s  %-8s %10s %10s %8s %8s %8s  %s\n", "family", "seed", "result",
              "jug_ns", "base_ns", "pkts", "faults", "flaps", "digest");

  int failures = 0;
  std::vector<TraceEvent> all_events;
  uint64_t trace_dropped = 0;
  for (FaultFamily family : families) {
    for (int s = 0; s < seeds; ++s) {
      ChaosOptions opt;
      opt.seed = base_seed + static_cast<uint64_t>(s);
      opt.family = family;
      opt.transfer_bytes = bytes;
      opt.rx_driver = rx_driver;
      opt.obs.metrics = metrics;
      opt.obs.trace = !trace_path.empty();
      if (app_kind != AppWorkloadKind::kNone) {
        opt.app.kind = app_kind;
        opt.app.response_bytes = 12'288;
        opt.app.chunk_bytes = 49'152;
        opt.app.transfer_bytes_per_session = 3 * opt.app.chunk_bytes;
      }
      if (overload) {
        // One window of each kind: an incast storm, an ephemeral-flow churn
        // flood, then a memory brown-out that shrinks the caps mid-run.
        opt.overload.pool_capacity = 4'096;
        OverloadWindow incast;
        incast.kind = OverloadKind::kIncast;
        incast.start = Ms(5);
        incast.end = Ms(15);
        incast.flows = 96;
        incast.packets_per_flow = 4;
        incast.burst_interval = Us(150);
        opt.overload.windows.push_back(incast);
        OverloadWindow churn;
        churn.kind = OverloadKind::kChurn;
        churn.start = Ms(20);
        churn.end = Ms(30);
        churn.flows = 64;
        churn.packets_per_flow = 2;
        churn.burst_interval = Us(200);
        opt.overload.windows.push_back(churn);
        OverloadWindow brownout;
        brownout.kind = OverloadKind::kBrownout;
        brownout.start = Ms(35);
        brownout.end = Ms(45);
        brownout.cap_pct = 25;
        opt.overload.windows.push_back(brownout);
      }

      if (single_stack) {
        // One engine, no differential: --stack picks which GRO path the
        // workload rides (presto has no differential partner).
        const ChaosEngineResult er = RunChaosEngine(opt, stack);
        const bool ok = er.completed && er.violations == 0;
        std::printf("%-12s %6llu  %-8s %10lld %10s %8llu %8s %8llu  %016llx\n",
                    FaultFamilyName(family), static_cast<unsigned long long>(opt.seed),
                    ok ? "ok" : "FAIL", static_cast<long long>(er.finish_time), "-",
                    static_cast<unsigned long long>(er.faults.packets_in), "-",
                    static_cast<unsigned long long>(er.flaps),
                    static_cast<unsigned long long>(er.digest));
        PrintRunDetails(opt, er, StackKindName(stack), &all_events, &trace_dropped);
        if (!ok) {
          ++failures;
          for (const std::string& m : er.violation_messages) {
            std::printf("    %s: %s\n", er.engine.c_str(), m.c_str());
          }
        }
        continue;
      }

      const ChaosResult r = RunChaos(opt);
      const uint64_t fault_events = r.juggler.faults.drops + r.juggler.faults.duplicates +
                                    r.juggler.faults.corruptions +
                                    r.juggler.faults.truncations + r.juggler.faults.delayed;
      std::printf("%-12s %6llu  %-8s %10lld %10lld %8llu %8llu %8llu  %016llx\n",
                  FaultFamilyName(family), static_cast<unsigned long long>(opt.seed),
                  r.ok ? "ok" : "FAIL", static_cast<long long>(r.juggler.finish_time),
                  static_cast<long long>(r.baseline.finish_time),
                  static_cast<unsigned long long>(r.juggler.faults.packets_in),
                  static_cast<unsigned long long>(fault_events),
                  static_cast<unsigned long long>(r.juggler.flaps),
                  static_cast<unsigned long long>(r.juggler.digest));
      PrintRunDetails(opt, r.juggler, nullptr, &all_events, &trace_dropped);
      if (!r.ok) {
        ++failures;
        for (const auto& res : {r.juggler, r.baseline}) {
          if (!res.completed) {
            std::printf("    %s: incomplete, %llu/%llu bytes\n", res.engine.c_str(),
                        static_cast<unsigned long long>(res.bytes_delivered),
                        static_cast<unsigned long long>(bytes));
          }
          for (const std::string& m : res.violation_messages) {
            std::printf("    %s: %s\n", res.engine.c_str(), m.c_str());
          }
        }
        if (!r.streams_match) {
          std::printf("    stream mismatch: juggler %llu vs baseline %llu bytes\n",
                      static_cast<unsigned long long>(r.juggler.bytes_delivered),
                      static_cast<unsigned long long>(r.baseline.bytes_delivered));
        }
      }
    }
  }

  if (!trace_path.empty()) {
    const Json trace = TraceToJson(all_events, trace_dropped, ChaosTraceNamer());
    std::string error;
    if (!WriteTraceFile(trace_path, trace, &error)) {
      std::fprintf(stderr, "trace write failed: %s\n", error.c_str());
      return 2;
    }
    std::printf("\ntrace: %zu events (%llu dropped) -> %s\n", all_events.size(),
                static_cast<unsigned long long>(trace_dropped), trace_path.c_str());
  }

  std::printf("\n%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
