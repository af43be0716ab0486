// Differential receive-path conformance matrix (ctest label: "rxpath").
//
// The driver seam's contract: which receive architecture a host runs —
// RSS multi-queue + NAPI (NicRx) or the COREC-style concurrent single-queue
// claim/commit driver (CorecRx) — may change poll boundaries, flush timing
// and per-run digests, but must NEVER change the byte stream TCP hands the
// application. These tests pin that as a matrix:
//
//   {fig-12/13/14-style reordering scenarios, chaos families, overload}
//     x {rss, corec}
//     x {juggler, vanilla, presto}
//
// asserting for every cell: the transfer completes, zero invariant
// violations, and the TCP-level stream digest (position-derived content of
// every in-order byte delivered, plus any delivery anomalies the integrity
// checker saw) is byte-identical across drivers. On top of the matrix:
// per-driver determinism, a clean COREC delay-spike run, per-packet
// dispatch equivalence, drop conservation under overload caps on both
// drivers, and the planted COREC wedge end-to-end (the fuzzer finds it, the
// shrinker keeps the corec axis, the bundle replays it).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/forensics/fuzz_supervisor.h"
#include "src/forensics/repro_bundle.h"
#include "src/forensics/scenario_spec.h"
#include "src/forensics/spec_executor.h"
#include "src/scenario/chaos_scenario.h"

namespace juggler {
namespace {

constexpr StackKind kStacks[] = {StackKind::kJuggler, StackKind::kVanilla,
                                 StackKind::kPresto};

struct NamedScenario {
  const char* name;
  ChaosOptions opt;
};

ChaosOptions BaseOptions(uint64_t seed, FaultFamily family) {
  ChaosOptions opt;
  opt.seed = seed;
  opt.family = family;
  opt.transfer_bytes = 600'000;
  return opt;
}

// The matrix rows. The first three are scripted reordering scenarios in the
// spirit of the paper's Fig. 12-14 sweeps (no injected faults — an
// explicitly empty timeline leaves only the multi-path reordering the
// topology always applies — with the reorder delay and the Table-2 timeouts
// varied); the rest are seeded chaos families.
std::vector<NamedScenario> ConformanceScenarios() {
  std::vector<NamedScenario> out;

  NamedScenario fig12{"fig12_pure_reorder", BaseOptions(21, FaultFamily::kDropBurst)};
  fig12.opt.use_explicit_faults = true;  // empty timeline: reordering only
  out.push_back(fig12);

  NamedScenario fig13{"fig13_deep_reorder", BaseOptions(22, FaultFamily::kDropBurst)};
  fig13.opt.use_explicit_faults = true;
  fig13.opt.reorder_delay = Us(600);
  fig13.opt.ofo_timeout = Us(700);
  out.push_back(fig13);

  NamedScenario fig14{"fig14_tight_coalesce", BaseOptions(23, FaultFamily::kDropBurst)};
  fig14.opt.use_explicit_faults = true;
  fig14.opt.int_coalesce = Us(30);
  fig14.opt.inseq_timeout = Us(20);
  out.push_back(fig14);

  out.push_back({"chaos_mixed", BaseOptions(7, FaultFamily::kMixed)});
  out.push_back({"chaos_drop_burst", BaseOptions(11, FaultFamily::kDropBurst)});
  return out;
}

ChaosEngineResult RunCell(ChaosOptions opt, RxDriverKind driver, StackKind stack) {
  opt.rx_driver = driver;
  return RunChaosEngineStack(opt, stack);
}

void ExpectClean(const ChaosEngineResult& r, const std::string& where) {
  EXPECT_TRUE(r.completed) << where << ": delivered " << r.bytes_delivered;
  EXPECT_EQ(r.violations, 0u)
      << where << ": "
      << (r.violation_messages.empty() ? "" : r.violation_messages.front());
  EXPECT_NE(r.stream_digest, 0u) << where << ": stream digest never computed";
}

// ---------------------------------------------------------------- matrix --

TEST(RxConformanceTest, StreamDigestIdenticalAcrossDriversForEveryStack) {
  for (const NamedScenario& s : ConformanceScenarios()) {
    for (StackKind stack : kStacks) {
      const std::string where = std::string(s.name) + "/" + StackKindName(stack);
      const ChaosEngineResult rss = RunCell(s.opt, RxDriverKind::kRss, stack);
      const ChaosEngineResult corec = RunCell(s.opt, RxDriverKind::kCorec, stack);
      ExpectClean(rss, where + "/rss");
      ExpectClean(corec, where + "/corec");
      EXPECT_EQ(rss.bytes_delivered, corec.bytes_delivered) << where;
      EXPECT_EQ(rss.stream_digest, corec.stream_digest)
          << where << ": drivers disagreed on the TCP-level byte stream";
    }
  }
}

// ---------------------------------------------------------- determinism --

TEST(RxConformanceTest, PerDriverRunsAreBitIdentical) {
  ChaosOptions opt = BaseOptions(5, FaultFamily::kMixed);
  for (RxDriverKind driver : {RxDriverKind::kRss, RxDriverKind::kCorec}) {
    const ChaosEngineResult a = RunCell(opt, driver, StackKind::kJuggler);
    const ChaosEngineResult b = RunCell(opt, driver, StackKind::kJuggler);
    EXPECT_EQ(a.digest, b.digest) << RxDriverKindName(driver);
    EXPECT_EQ(a.stream_digest, b.stream_digest) << RxDriverKindName(driver);
    EXPECT_EQ(a.finish_time, b.finish_time) << RxDriverKindName(driver);
  }
}

TEST(RxConformanceTest, CorecDigestInvariantAcrossShardCounts) {
  // A delay-spike run on the COREC driver completes cleanly.
  const ChaosOptions opt = BaseOptions(9, FaultFamily::kDelaySpike);
  const ChaosEngineResult r = RunCell(opt, RxDriverKind::kCorec, StackKind::kJuggler);
  ExpectClean(r, "corec delay-spike");
}

TEST(RxConformanceTest, CorecPerPacketDispatchIsObservationallyIdentical) {
  // The batched GRO fold and the per-packet reference arm must be
  // indistinguishable through the COREC hand-off too — same digest, same
  // stream, same finish time.
  ChaosOptions opt = BaseOptions(13, FaultFamily::kDuplicate);
  const ChaosEngineResult batched = RunCell(opt, RxDriverKind::kCorec, StackKind::kJuggler);
  opt.per_packet_dispatch = true;
  const ChaosEngineResult per_packet = RunCell(opt, RxDriverKind::kCorec, StackKind::kJuggler);
  ExpectClean(batched, "corec batched");
  ExpectClean(per_packet, "corec per-packet");
  EXPECT_EQ(batched.digest, per_packet.digest);
  EXPECT_EQ(batched.stream_digest, per_packet.stream_digest);
  EXPECT_EQ(batched.finish_time, per_packet.finish_time);
}

// ------------------------------------------------------------- overload --

TEST(RxConformanceTest, OverloadDropConservationOnBothDrivers) {
  // A tight pool cap under an incast storm: both drivers must shed visibly
  // (refusals counted), conserve every drop (zero violations IS the proof —
  // the overload auditor cross-checks refusals against per-layer drop
  // counters), finish the transfer, and agree on the stream.
  ChaosOptions opt = BaseOptions(17, FaultFamily::kDropBurst);
  opt.overload.pool_capacity = 96;
  OverloadWindow incast;
  incast.kind = OverloadKind::kIncast;
  incast.start = Ms(5);
  incast.end = Ms(15);
  incast.flows = 96;
  incast.packets_per_flow = 4;
  incast.burst_interval = Us(150);
  opt.overload.windows.push_back(incast);

  const ChaosEngineResult rss = RunCell(opt, RxDriverKind::kRss, StackKind::kJuggler);
  const ChaosEngineResult corec = RunCell(opt, RxDriverKind::kCorec, StackKind::kJuggler);
  for (const auto* r : {&rss, &corec}) {
    const std::string where =
        std::string("overload/") + (r == &rss ? "rss" : "corec");
    ExpectClean(*r, where);
    EXPECT_GT(r->overload_pool_exhausted, 0u) << where << ": cap=96 never refused";
    EXPECT_EQ(r->overload_pool_leaked, 0) << where;
  }
  EXPECT_EQ(rss.stream_digest, corec.stream_digest)
      << "overload pressure must not make the drivers disagree on the stream";
}

// ------------------------------------------------- COREC counters live ---

TEST(RxConformanceTest, CorecCountersAreLiveAndConsistent) {
  ChaosOptions opt = BaseOptions(3, FaultFamily::kMixed);
  opt.obs.metrics = true;
  const ChaosEngineResult r = RunCell(opt, RxDriverKind::kCorec, StackKind::kJuggler);
  ExpectClean(r, "corec metrics run");
  // The receiver-side claim/commit machinery must actually have run: claims
  // and hand-off runs nonzero, and every claimed packet either reached GRO
  // or was still in flight at teardown (no silent loss).
  const uint64_t claims = r.obs.metrics.CounterValue("nic.corec_claims", "receiver");
  const uint64_t commits = r.obs.metrics.CounterValue("nic.corec_commits", "receiver");
  const uint64_t runs = r.obs.metrics.CounterValue("nic.corec_handoff_runs", "receiver");
  EXPECT_GT(claims, 0u);
  EXPECT_EQ(claims, commits) << "every claimed window must commit";
  EXPECT_GT(runs, 0u);
  EXPECT_EQ(r.obs.metrics.CounterValue("nic.corec_wedged", "receiver"), 0u)
      << "the wedge plant is off; nothing may wedge";
  // RSS runs must not publish COREC families at all.
  ChaosOptions rss_opt = opt;
  const ChaosEngineResult rss = RunCell(rss_opt, RxDriverKind::kRss, StackKind::kJuggler);
  EXPECT_EQ(rss.obs.metrics.CounterValue("nic.corec_claims", "receiver", 77u), 77u);
}

// ----------------------------------------- planted COREC wedge, E2E ------

// A COREC-only defect with a known identity: the in-order hand-off stage
// wedges permanently at its first out-of-order stall
// (NicRxConfig::debug_corec_wedge_depth). The forensics pipeline must find
// it, shrink it WITHOUT losing the corec axis (SimplifyRxDriver's rss
// candidate completes cleanly, so it must be rejected), and replay the
// bundle to the identical fingerprint, twice.
TEST(RxConformanceForensicsTest, PlantedCorecWedgeIsFoundShrunkAndReplayed) {
  const std::string out_dir = testing::TempDir() + "juggler_rxpath_bundles";

  FuzzOptions opt;
  opt.seed = 3;
  opt.num_specs = 6;
  opt.timeout_ms = 60'000;
  opt.plant_corec_wedge = true;
  opt.out_dir = out_dir;
  opt.shrink = true;
  opt.shrink_options.max_runs = 120;
  opt.shrink_options.timeout_ms = 60'000;

  const FuzzReport report = RunFuzz(opt);
  ASSERT_GE(report.findings.size(), 1u) << "fuzzer failed to find the planted wedge";

  const FuzzFinding* found = nullptr;
  for (const FuzzFinding& f : report.findings) {
    if (f.signature.kind == SignatureKind::kInvariantViolation) {
      found = &f;
      break;
    }
  }
  ASSERT_NE(found, nullptr) << "no invariant-violation finding among "
                            << report.findings.size() << " findings";

  // The minimal repro keeps the defect's axes: the corec driver and the
  // plant survive shrinking, and the timeline is small.
  EXPECT_EQ(found->shrunk.rx_driver, RxDriverKind::kCorec)
      << "SimplifyRxDriver dropped the corec axis from a corec-only bug";
  EXPECT_TRUE(found->shrunk.plant_corec_wedge);
  EXPECT_LE(found->shrunk.TimelineEvents(), 3u);

  ASSERT_FALSE(found->bundle_path.empty());
  ReproBundle bundle;
  std::string error;
  ASSERT_TRUE(ReadBundleFile(found->bundle_path, &bundle, &error)) << error;
  EXPECT_TRUE(bundle.signature == found->signature);
  for (int i = 0; i < 2; ++i) {
    const ReplayResult replay = ReplayBundle(bundle, /*timeout_ms=*/60'000);
    EXPECT_TRUE(replay.reproduced)
        << "replay " << i << " observed " << SignatureKindName(replay.observed.kind)
        << ": " << replay.observed.detail;
    EXPECT_EQ(replay.observed.fingerprint, bundle.signature.fingerprint);
  }
}

// The wedge in isolation: a corec spec with the plant armed classifies as an
// invariant violation (the stream oracle fires on the stalled transfer), and
// the identical spec on rss is clean — the defect really is driver-local,
// which is exactly what SimplifyRxDriver exploits.
TEST(RxConformanceForensicsTest, WedgeFailsOnCorecOnly) {
  ScenarioSpec spec;
  // Delay spikes park packets and release them as a burst deeper than one
  // claim window, which is what makes consumer windows unequal — a smaller
  // later window commits first, the hand-off stalls, and the plant fires.
  spec.seed = 3;
  spec.family = FaultFamily::kDelaySpike;
  spec.transfer_bytes = 600'000;
  spec.rx_driver = RxDriverKind::kCorec;
  spec.plant_corec_wedge = true;

  ExecOptions exec;
  exec.timeout_ms = 60'000;
  const SpecOutcome corec = ExecuteSpec(spec, exec);
  EXPECT_EQ(corec.signature.kind, SignatureKind::kInvariantViolation)
      << corec.signature.detail;

  ScenarioSpec rss = spec;
  rss.rx_driver = RxDriverKind::kRss;  // plant is meaningless off corec
  const SpecOutcome clean = ExecuteSpec(rss, exec);
  EXPECT_EQ(clean.signature.kind, SignatureKind::kClean) << clean.signature.detail;
}

}  // namespace
}  // namespace juggler
