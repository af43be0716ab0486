// perf_core: hot-path microbenchmarks for the simulation core, with a
// tracked baseline.
//
// Unlike the fig* benches (which measure the *simulated* system) and
// micro_gro_datapath (google-benchmark exploration), perf_core is the repo's
// perf trajectory: it measures the two rates every experiment is bottlenecked
// by — EventLoop events/sec and GRO-datapath packets/sec — and writes
// BENCH_core.json containing both the current numbers and the recorded
// pre-overhaul baseline from bench/perf_baseline.h, so any regression (or
// win) is visible in one file.
//
// Modes:
//   perf_core [--smoke] [--out PATH]   run the suite, merge into BENCH_core.json
//                                      (other benches' sections are preserved)
//   perf_core --baseline-header PATH --commit SHA
//                                      same run, also re-record perf_baseline.h;
//                                      the JSON then references the new numbers
//   perf_core --print-baseline-header  emit a fresh perf_baseline.h to stdout
//   perf_core --check PATH             schema-check an existing BENCH_core.json

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/perf_baseline.h"
#include "src/core/juggler.h"
#include "src/nic/rx_driver.h"
#include "src/obs/flight_recorder.h"
#include "src/packet/packet.h"
#include "src/sim/event_loop.h"
#include "src/util/json.h"
#include "src/util/time.h"

namespace juggler {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------- events --

// Self-rescheduling event chains, the pattern links/NICs/TCP use. Captures
// are sized like real call sites (a couple of pointers plus flags), which is
// past std::function's inline buffer but inside TimerCallback's.
struct Chain {
  EventLoop* loop = nullptr;
  uint64_t remaining = 0;
  uint64_t fired = 0;
  uint64_t pad0 = 0, pad1 = 0;  // mimic per-callsite state captured by value

  void Arm() {
    loop->Schedule(1, [this, a = pad0, b = pad1] {
      pad0 = a + b;
      ++fired;
      if (--remaining > 0) {
        Arm();
      }
    });
  }
};

double MeasureEventsPerSec(uint64_t total_events) {
  EventLoop loop;
  constexpr uint64_t kChains = 8;
  std::vector<Chain> chains(kChains);
  // Untimed warm-up: first-touching the wheel arrays, callback slab, and
  // malloc arenas is a fixed cost (~ms) that would otherwise dominate
  // smoke-sized runs and read as a throughput regression.
  for (auto& c : chains) {
    c.loop = &loop;
    c.remaining = total_events / kChains / 16 + 1;
  }
  for (auto& c : chains) {
    c.Arm();
  }
  loop.Run();
  for (auto& c : chains) {
    c.fired = 0;
    c.remaining = total_events / kChains;
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : chains) {
    c.Arm();
  }
  loop.Run();
  const double secs = Seconds(std::chrono::steady_clock::now() - t0);
  uint64_t fired = 0;
  for (const auto& c : chains) {
    fired += c.fired;
  }
  return static_cast<double>(fired) / secs;
}

// TCP-RTO-style churn: arm a far-future timer, cancel it on the next "ACK".
// Schedule+cancel dominates; the loop must keep its bookkeeping cheap and its
// heap compact while almost nothing ever fires.
double MeasureTimerChurnOpsPerSec(uint64_t total_ops) {
  EventLoop loop;
  uint64_t fires = 0;
  uint64_t sink = 0;
  // Untimed warm-up, same rationale as the events bench: first-touch of the
  // wheel slots and the callback freelist is a fixed cost the steady-state
  // rate should not carry.
  for (uint64_t i = 0; i < total_ops / 16 + 1; ++i) {
    loop.Cancel(loop.Schedule(Ms(200), [&fires] { ++fires; }));
  }
  loop.Run();
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < total_ops; ++i) {
    const TimerId id =
        loop.Schedule(Ms(200), [&fires, &sink, i] { fires += 1 + (sink & 0) + (i & 0); });
    loop.Cancel(id);
    if ((i & 1023) == 0) {
      // Keep a trickle of real fires mixed in so the heap never goes fully
      // dead (matches ACK-clocked RTO re-arming).
      loop.Schedule(0, [&fires] { ++fires; });
      loop.RunSteps(1);
    }
  }
  loop.Run();
  const double secs = Seconds(std::chrono::steady_clock::now() - t0);
  return static_cast<double>(total_ops) / secs;
}

// ------------------------------------------------------------- datapath --

// Single-flow in-order GRO datapath, the Fig. 9 fast path: one PacketFactory
// packet per MTU, NAPI-budget polls through Juggler, segments delivered
// through the engine's GroHost. This is the per-packet cost every simulated
// byte pays.

// Bench-local host: collects segments, records the armed timer deadline.
struct BenchGroHost : GroHost {
  std::vector<Segment> delivered;
  TimeNs armed = GroEngine::kNoTimer;

  void GroDeliver(Segment s) override { delivered.push_back(std::move(s)); }
  void GroArmTimer(TimeNs when) override { armed = when; }
};

// `recorder` null measures the shipped configuration (the flight-recorder
// branches compile in but never fire); non-null measures the fully
// instrumented path, ring writes included.
double MeasureGroDatapathPacketsPerSec(uint64_t total_packets,
                                       FlightRecorder* recorder = nullptr) {
  CpuCostModel costs;
  Juggler engine(&costs, JugglerConfig{});

  TimeNs now = 0;
  BenchGroHost host;
  GroEngine::Context ctx;
  ctx.now = &now;
  ctx.host = &host;
  ctx.recorder = recorder;
  engine.set_context(ctx);

  PacketFactory factory;
  FiveTuple flow;
  flow.src_ip = 0x0a000001;
  flow.dst_ip = 0x0a000002;
  flow.src_port = 1000;
  flow.dst_port = 2000;

  constexpr uint64_t kBudget = 64;  // NAPI budget per poll round
  std::vector<PacketPtr> batch;
  batch.reserve(kBudget);
  Seq seq = 0;
  uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < total_packets) {
    batch.clear();
    for (uint64_t j = 0; j < kBudget; ++j) {
      PacketPtr p = factory.Make();
      p->flow = flow;
      p->seq = seq;
      p->payload_len = kMss;
      p->flags = kFlagAck;
      p->nic_rx_time = now;
      batch.push_back(std::move(p));
      seq += kMss;
    }
    // One batch per poll round, as NicRx::DoPoll hands them off.
    engine.ReceiveBatch(batch.data(), batch.size());
    done += kBudget;
    engine.PollComplete();
    now += Us(5);
    if (host.armed != GroEngine::kNoTimer && host.armed <= now) {
      host.armed = GroEngine::kNoTimer;
      engine.OnTimer();
    }
    host.delivered.clear();
  }
  const double secs = Seconds(std::chrono::steady_clock::now() - t0);
  return static_cast<double>(done) / secs;
}

// ------------------------------------------------------------ rx drivers --

// Full receive-driver datapath on a live EventLoop: wire -> ring ->
// poll/claim machinery -> batched GRO -> segment sink. Unlike the NIC-less
// gro_datapath bench above, this pays each driver's own bookkeeping (NAPI
// sessions for RSS; claim/commit windows and the in-order hand-off for
// COREC), which is exactly the per-packet overhead the corec gate bounds.
struct CountingSink : SegmentSink {
  uint64_t bytes = 0;
  void OnSegment(Segment s) override { bytes += s.payload_len; }
};

double MeasureRxDriverPacketsPerSec(RxDriverKind kind, uint64_t total_packets) {
  EventLoop loop;
  CpuCostModel costs;
  CountingSink sink;
  NicRxConfig cfg;
  cfg.driver = kind;
  std::unique_ptr<RxDriver> nic = MakeRxDriver(
      &loop, &costs, cfg,
      [](const CpuCostModel* c) -> std::unique_ptr<GroEngine> {
        return std::make_unique<Juggler>(c, JugglerConfig{});
      },
      &sink);

  PacketFactory factory;
  FiveTuple flow;
  flow.src_ip = 0x0a000001;
  flow.dst_ip = 0x0a000002;
  flow.src_port = 1000;
  flow.dst_port = 2000;

  constexpr uint64_t kBurst = 64;
  Seq seq = 0;
  auto burst = [&] {
    for (uint64_t j = 0; j < kBurst; ++j) {
      PacketPtr p = factory.Make();
      p->flow = flow;
      p->seq = seq;
      p->payload_len = kMss;
      p->flags = kFlagAck;
      nic->Accept(std::move(p));
      seq += kMss;
    }
    loop.Run();
  };
  // Untimed warm-up (first-touch of rings, cores, GRO tables).
  for (uint64_t done = 0; done < total_packets / 16 + kBurst; done += kBurst) {
    burst();
  }
  uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < total_packets) {
    burst();
    done += kBurst;
  }
  const double secs = Seconds(std::chrono::steady_clock::now() - t0);
  return static_cast<double>(done) / secs;
}

// ----------------------------------------------------------------- suite --

struct Results {
  double events_per_sec = 0;
  double churn_ops_per_sec = 0;
  double packets_per_sec = 0;
  double obs_on_packets_per_sec = 0;  // same datapath, flight recorder attached
  double rss_driver_packets_per_sec = 0;    // full NicRx (RSS+NAPI) datapath
  double corec_driver_packets_per_sec = 0;  // full CorecRx datapath
};

Results RunSuite(bool smoke) {
  const uint64_t events = smoke ? 200'000 : 4'000'000;
  // Churn ops are ~10ns each: 200k would be a 2ms window where one scheduler
  // preemption halves the reading. 1M keeps smoke under 15ms and stable.
  const uint64_t churn = smoke ? 1'000'000 : 4'000'000;
  const uint64_t packets = smoke ? 128'000 : 2'048'000;
  const int reps = smoke ? 1 : 3;

  Results best;
  for (int r = 0; r < reps; ++r) {
    Results cur;
    cur.events_per_sec = MeasureEventsPerSec(events);
    cur.churn_ops_per_sec = MeasureTimerChurnOpsPerSec(churn);
    cur.packets_per_sec = MeasureGroDatapathPacketsPerSec(packets);
    {
      FlightRecorder recorder(/*shard=*/0);
      cur.obs_on_packets_per_sec = MeasureGroDatapathPacketsPerSec(packets, &recorder);
    }
    const uint64_t driver_packets = packets / 4;  // full drivers are ~4x costlier
    cur.rss_driver_packets_per_sec =
        MeasureRxDriverPacketsPerSec(RxDriverKind::kRss, driver_packets);
    cur.corec_driver_packets_per_sec =
        MeasureRxDriverPacketsPerSec(RxDriverKind::kCorec, driver_packets);
    best.events_per_sec = std::max(best.events_per_sec, cur.events_per_sec);
    best.churn_ops_per_sec = std::max(best.churn_ops_per_sec, cur.churn_ops_per_sec);
    best.packets_per_sec = std::max(best.packets_per_sec, cur.packets_per_sec);
    best.obs_on_packets_per_sec =
        std::max(best.obs_on_packets_per_sec, cur.obs_on_packets_per_sec);
    best.rss_driver_packets_per_sec =
        std::max(best.rss_driver_packets_per_sec, cur.rss_driver_packets_per_sec);
    best.corec_driver_packets_per_sec =
        std::max(best.corec_driver_packets_per_sec, cur.corec_driver_packets_per_sec);
  }
  return best;
}

double Ratio(double cur, double base) { return base > 0 ? cur / base : 0.0; }

// The perf ctest gate: every metric must hold at least `tolerance` of its
// recorded baseline. Failures name the metric with current, baseline and the
// tolerance line it crossed, so a CI log is actionable without rerunning.
int GateAgainstBaseline(const Results& r, double tolerance) {
  struct Metric {
    const char* name;
    double current;
    double baseline;
    double heap_era;
  };
  const Metric metrics[] = {
      {"event_loop events/sec", r.events_per_sec, perf_baseline::kEventLoopEventsPerSec,
       perf_baseline::kHeapEraEventLoopEventsPerSec},
      {"timer_churn ops/sec", r.churn_ops_per_sec, perf_baseline::kTimerChurnOpsPerSec,
       perf_baseline::kHeapEraTimerChurnOpsPerSec},
      {"gro_datapath packets/sec", r.packets_per_sec,
       perf_baseline::kGroDatapathPacketsPerSec,
       perf_baseline::kHeapEraGroDatapathPacketsPerSec},
  };
  int failures = 0;
  for (const Metric& m : metrics) {
    const double ratio = Ratio(m.current, m.baseline);
    if (ratio < tolerance) {
      // Both reference eras, so a failure log shows whether the regression
      // merely gives back the overhaul or falls below the original seed.
      std::fprintf(stderr,
                   "PERF GATE FAIL: %s = %.0f is %.1fx of baseline %.0f "
                   "(tolerance %.1fx of commit %s)\n"
                   "                wheel-era reference: %.0f @ %s\n"
                   "                heap-era reference:  %.0f @ %s (%.1fx of that)\n",
                   m.name, m.current, ratio, m.baseline, tolerance, perf_baseline::kCommit,
                   m.baseline, perf_baseline::kCommit, m.heap_era,
                   perf_baseline::kHeapEraCommit, Ratio(m.current, m.heap_era));
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("perf gate: all metrics >= %.1fx of baseline %s\n", tolerance,
                perf_baseline::kCommit);
  }
  return failures;
}

// The observability gate: with instrumentation compiled in but DISABLED (no
// recorder attached — the shipped configuration), the GRO datapath must hold
// at least `tolerance` of the pre-observability baseline. The default of
// 0.98 is the "obs off costs <= 2%" acceptance bar; CI smoke runs use a
// looser ratio because shared runners are noisy. The obs-ON rate is printed
// for the record but never gated — paying for data when you ask for it is
// the deal.
int GateObsOverhead(const Results& r, double tolerance) {
  const double ratio = Ratio(r.packets_per_sec, perf_baseline::kGroDatapathPacketsPerSec);
  std::printf("obs gate: gro_datapath obs-off %.0f pkts/sec (%.2fx of baseline %.0f),"
              " obs-on %.0f (%.2fx of obs-off)\n",
              r.packets_per_sec, ratio, perf_baseline::kGroDatapathPacketsPerSec,
              r.obs_on_packets_per_sec,
              Ratio(r.obs_on_packets_per_sec, r.packets_per_sec));
  if (ratio < tolerance) {
    std::fprintf(stderr,
                 "OBS GATE FAIL: obs-disabled gro_datapath = %.0f is %.2fx of baseline "
                 "%.0f (tolerance %.2fx of commit %s) — instrumentation is not free\n",
                 r.packets_per_sec, ratio, perf_baseline::kGroDatapathPacketsPerSec,
                 tolerance, perf_baseline::kCommit);
    return 1;
  }
  std::printf("obs gate: obs-disabled datapath >= %.2fx of baseline %s\n", tolerance,
              perf_baseline::kCommit);
  return 0;
}

// The COREC acceptance gate: the concurrent single-queue driver's per-packet
// wall cost (measured through the full driver datapath) must stay within
// `max_ratio` of RSS+NAPI's — the claim/commit and hand-off bookkeeping is
// allowed to cost something, but not to change the simulator's complexity
// class. Cost ratio = rss_rate / corec_rate (rates invert costs).
int GateCorecOverhead(const Results& r, double max_ratio) {
  const double cost_ratio = r.corec_driver_packets_per_sec > 0
                                ? r.rss_driver_packets_per_sec / r.corec_driver_packets_per_sec
                                : 0.0;
  std::printf("corec gate: rx_driver datapath rss %.0f pkts/sec, corec %.0f pkts/sec "
              "(corec per-packet cost %.2fx of rss)\n",
              r.rss_driver_packets_per_sec, r.corec_driver_packets_per_sec, cost_ratio);
  if (cost_ratio <= 0.0 || cost_ratio > max_ratio) {
    std::fprintf(stderr,
                 "COREC GATE FAIL: corec per-packet cost is %.2fx of rss "
                 "(tolerance %.2fx) — the claim/commit path got expensive\n",
                 cost_ratio, max_ratio);
    return 1;
  }
  std::printf("corec gate: corec datapath within %.2fx of rss\n", max_ratio);
  return 0;
}

// The reference the current numbers are compared against in the output
// file. Normally the compiled-in perf_baseline constants; when this run IS
// a recording pass (--baseline-header), the fresh numbers themselves, so
// the written JSON and the written header agree without a rebuild.
struct BaselineView {
  std::string commit = perf_baseline::kCommit;
  double events_per_sec = perf_baseline::kEventLoopEventsPerSec;
  double churn_ops_per_sec = perf_baseline::kTimerChurnOpsPerSec;
  double packets_per_sec = perf_baseline::kGroDatapathPacketsPerSec;
};

// Merge-preserving writer: sections other benches own (perf_scale's
// "flow_scale" / "tcp_scale") survive a perf_core rerun, so one recording
// pass over the benches — in any order — leaves a complete file.
void WriteJson(const Results& r, const BaselineView& base, const std::string& path) {
  Json doc = Json::Object();
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      std::string error;
      if (!Json::Parse(ss.str(), &doc, &error)) {
        std::fprintf(stderr, "perf_core: %s unparseable (%s), rewriting\n", path.c_str(),
                     error.c_str());
        doc = Json::Object();
      }
    }
  }
  doc.Set("bench", Json::Str("perf_core"));
  Json baseline = Json::Object();
  baseline.Set("commit", Json::Str(base.commit));
  baseline.Set("event_loop_events_per_sec", Json::Double(base.events_per_sec));
  baseline.Set("timer_churn_ops_per_sec", Json::Double(base.churn_ops_per_sec));
  baseline.Set("gro_datapath_packets_per_sec", Json::Double(base.packets_per_sec));
  doc.Set("baseline", std::move(baseline));
  Json current = Json::Object();
  current.Set("event_loop_events_per_sec", Json::Double(r.events_per_sec));
  current.Set("timer_churn_ops_per_sec", Json::Double(r.churn_ops_per_sec));
  current.Set("gro_datapath_packets_per_sec", Json::Double(r.packets_per_sec));
  current.Set("gro_datapath_obs_on_packets_per_sec", Json::Double(r.obs_on_packets_per_sec));
  current.Set("rx_driver_rss_packets_per_sec", Json::Double(r.rss_driver_packets_per_sec));
  current.Set("rx_driver_corec_packets_per_sec",
              Json::Double(r.corec_driver_packets_per_sec));
  doc.Set("current", std::move(current));
  Json speedup = Json::Object();
  speedup.Set("event_loop", Json::Double(Ratio(r.events_per_sec, base.events_per_sec)));
  speedup.Set("timer_churn", Json::Double(Ratio(r.churn_ops_per_sec, base.churn_ops_per_sec)));
  speedup.Set("gro_datapath", Json::Double(Ratio(r.packets_per_sec, base.packets_per_sec)));
  doc.Set("speedup", std::move(speedup));
  std::ofstream out(path);
  out << doc.Dump(2) << "\n";
}

// Emits a fresh bench/perf_baseline.h recording `r` as the new reference.
// The heap-era constants are carried forward verbatim so a regeneration
// never loses the historical reference.
void EmitBaselineHeader(FILE* out, const Results& r, const char* commit) {
  std::fprintf(
      out,
      "// Recorded hot-path baseline for bench/perf_core. Regenerate with\n"
      "//   cmake --build build --target bench-record\n"
      "// (or perf_core --baseline-header bench/perf_baseline.h --commit <sha>)\n"
      "// and note the commit it was measured at.\n"
      "\n"
      "#ifndef JUGGLER_BENCH_PERF_BASELINE_H_\n"
      "#define JUGGLER_BENCH_PERF_BASELINE_H_\n"
      "\n"
      "namespace juggler::perf_baseline {\n"
      "\n"
      "inline constexpr char kCommit[] = \"%s\";\n"
      "inline constexpr double kEventLoopEventsPerSec = %.1f;\n"
      "inline constexpr double kTimerChurnOpsPerSec = %.1f;\n"
      "inline constexpr double kGroDatapathPacketsPerSec = %.1f;\n"
      "\n"
      "// Heap-era reference (binary-heap timers, per-packet dispatch,\n"
      "// per-MTU heap allocation), measured at commit %s.\n"
      "inline constexpr char kHeapEraCommit[] = \"%s\";\n"
      "inline constexpr double kHeapEraEventLoopEventsPerSec = %.1f;\n"
      "inline constexpr double kHeapEraTimerChurnOpsPerSec = %.1f;\n"
      "inline constexpr double kHeapEraGroDatapathPacketsPerSec = %.1f;\n"
      "\n"
      "}  // namespace juggler::perf_baseline\n"
      "\n"
      "#endif  // JUGGLER_BENCH_PERF_BASELINE_H_\n",
      commit, r.events_per_sec, r.churn_ops_per_sec, r.packets_per_sec,
      perf_baseline::kHeapEraCommit, perf_baseline::kHeapEraCommit,
      perf_baseline::kHeapEraEventLoopEventsPerSec,
      perf_baseline::kHeapEraTimerChurnOpsPerSec,
      perf_baseline::kHeapEraGroDatapathPacketsPerSec);
}

// Minimal schema check: the file parses as one JSON object (brace balance)
// and contains every metric key the perf trajectory tracks.
int CheckSchema(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_core --check: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  int depth = 0;
  int max_depth = 0;
  for (char c : text) {
    if (c == '{') {
      max_depth = std::max(max_depth, ++depth);
    } else if (c == '}') {
      if (--depth < 0) {
        std::fprintf(stderr, "perf_core --check: unbalanced braces in %s\n", path.c_str());
        return 1;
      }
    }
  }
  if (depth != 0 || max_depth < 2) {
    std::fprintf(stderr, "perf_core --check: %s is not a nested JSON object\n", path.c_str());
    return 1;
  }
  const char* required[] = {
      "\"bench\"",         "\"baseline\"",
      "\"current\"",       "\"speedup\"",
      "\"commit\"",        "\"event_loop_events_per_sec\"",
      "\"timer_churn_ops_per_sec\"", "\"gro_datapath_packets_per_sec\"",
      "\"gro_datapath_obs_on_packets_per_sec\"",
      "\"rx_driver_rss_packets_per_sec\"",
      "\"rx_driver_corec_packets_per_sec\"",
      "\"event_loop\"",    "\"timer_churn\"",
      "\"gro_datapath\"",
  };
  int failures = 0;
  for (const char* key : required) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "perf_core --check: missing key %s\n", key);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("perf_core --check: %s ok\n", path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool print_header = false;
  double gate_tolerance = 0.0;      // 0 = no gate
  double obs_gate_tolerance = 0.0;  // 0 = no obs gate; 0.98 = the 2% bar
  double corec_gate_ratio = 0.0;    // 0 = no corec gate; 1.3 = the acceptance bar
  std::string out_path = "BENCH_core.json";
  std::string header_path;          // non-empty: this run records the baseline
  std::string commit_label = "unrecorded";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--print-baseline-header") == 0) {
      print_header = true;
    } else if (std::strcmp(argv[i], "--baseline-header") == 0 && i + 1 < argc) {
      header_path = argv[++i];
    } else if (std::strcmp(argv[i], "--commit") == 0 && i + 1 < argc) {
      commit_label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      gate_tolerance = std::strtod(argv[++i], nullptr);
      if (gate_tolerance <= 0.0) {
        std::fprintf(stderr, "--gate needs a tolerance ratio > 0 (e.g. 0.5)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--obs-gate") == 0 && i + 1 < argc) {
      obs_gate_tolerance = std::strtod(argv[++i], nullptr);
      if (obs_gate_tolerance <= 0.0) {
        std::fprintf(stderr, "--obs-gate needs a tolerance ratio > 0 (e.g. 0.98)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--corec-gate") == 0 && i + 1 < argc) {
      corec_gate_ratio = std::strtod(argv[++i], nullptr);
      if (corec_gate_ratio <= 0.0) {
        std::fprintf(stderr, "--corec-gate needs a max cost ratio > 0 (e.g. 1.3)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      return CheckSchema(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: perf_core [--smoke] [--out PATH] [--gate RATIO] "
                   "[--obs-gate RATIO] [--corec-gate RATIO] [--print-baseline-header]\n"
                   "                 [--baseline-header PATH] [--commit LABEL] "
                   "[--check PATH]\n");
      return 2;
    }
  }

  const Results r = RunSuite(smoke);

  if (print_header) {
    EmitBaselineHeader(stdout, r, "FILL_ME");
    return 0;
  }
  if (!header_path.empty()) {
    FILE* f = std::fopen(header_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_core: cannot write %s\n", header_path.c_str());
      return 1;
    }
    EmitBaselineHeader(f, r, commit_label.c_str());
    std::fclose(f);
    std::printf("recorded baseline header %s @ %s\n", header_path.c_str(),
                commit_label.c_str());
  }

  std::printf("\n=== perf_core ===\n%s\n\n",
              smoke ? "(smoke sizes)" : "(full sizes, best of 3)");
  std::printf("%-32s %16s %16s %10s\n", "metric", "baseline", "current", "speedup");
  std::printf("%-32s %16.0f %16.0f %9.1fx\n", "event_loop events/sec",
              perf_baseline::kEventLoopEventsPerSec, r.events_per_sec,
              Ratio(r.events_per_sec, perf_baseline::kEventLoopEventsPerSec));
  std::printf("%-32s %16.0f %16.0f %9.1fx\n", "timer_churn ops/sec",
              perf_baseline::kTimerChurnOpsPerSec, r.churn_ops_per_sec,
              Ratio(r.churn_ops_per_sec, perf_baseline::kTimerChurnOpsPerSec));
  std::printf("%-32s %16.0f %16.0f %9.1fx\n", "gro_datapath packets/sec",
              perf_baseline::kGroDatapathPacketsPerSec, r.packets_per_sec,
              Ratio(r.packets_per_sec, perf_baseline::kGroDatapathPacketsPerSec));
  std::printf("%-32s %16s %16.0f %9.2fx\n", "gro_datapath obs-on pkts/sec", "(vs obs-off)",
              r.obs_on_packets_per_sec,
              Ratio(r.obs_on_packets_per_sec, r.packets_per_sec));
  std::printf("%-32s %16s %16.0f %9s\n", "rx_driver rss pkts/sec", "-",
              r.rss_driver_packets_per_sec, "-");
  std::printf("%-32s %16s %16.0f %8.2fx\n", "rx_driver corec pkts/sec", "(cost vs rss)",
              r.corec_driver_packets_per_sec,
              Ratio(r.rss_driver_packets_per_sec, r.corec_driver_packets_per_sec));
  BaselineView base;
  if (!header_path.empty()) {
    // Recording pass: the JSON's reference is the header just written, so
    // the two artifacts agree (speedups read 1.0 by definition at record
    // time) without rebuilding against the new constants first.
    base.commit = commit_label;
    base.events_per_sec = r.events_per_sec;
    base.churn_ops_per_sec = r.churn_ops_per_sec;
    base.packets_per_sec = r.packets_per_sec;
  }
  WriteJson(r, base, out_path);
  std::printf("\nwrote %s\n", out_path.c_str());
  int failures = 0;
  if (gate_tolerance > 0.0) {
    failures += GateAgainstBaseline(r, gate_tolerance);
  }
  if (obs_gate_tolerance > 0.0) {
    failures += GateObsOverhead(r, obs_gate_tolerance);
  }
  if (corec_gate_ratio > 0.0) {
    failures += GateCorecOverhead(r, corec_gate_ratio);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace juggler

int main(int argc, char** argv) { return juggler::Main(argc, argv); }
