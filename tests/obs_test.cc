// Observability tests: the metrics registry and flight recorder in
// isolation, then the end-to-end determinism properties — metrics and
// traces byte-identical across reruns of the same seed, and checked-in
// golden traces for the Fig. 12/13 coalescing-timeout scenario and the
// COREC hand-off.

#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/juggler.h"
#include "src/gro/baseline_gro.h"
#include "src/nic/rx_driver.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/scenario/chaos_scenario.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(Log2HistogramTest, BucketBoundaries) {
  Log2Histogram h;
  h.Record(0);  // bucket 0
  h.Record(1);  // bucket 1
  h.Record(2);  // bucket 2
  h.Record(3);  // bucket 2
  h.Record(4);  // bucket 3
  h.Record(7);  // bucket 3
  h.Record(8);  // bucket 4
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 2u);
  EXPECT_EQ(h.buckets[4], 1u);
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum, 25u);
  // The giant-value clamp: everything above 2^62 lands in the last bucket.
  Log2Histogram top;
  top.Record(~uint64_t{0});
  EXPECT_EQ(top.buckets[Log2Histogram::kBuckets - 1], 1u);
}

TEST(MetricsRegistryTest, CountersGaugesAndMerge) {
  MetricsRegistry a;
  a.AddCounter("gro.flush", "juggler/size_limit", 3);
  a.AddCounter("gro.flush", "juggler/size_limit", 2);
  a.SetGauge("sim.pending_events", "", 10);
  a.MaxGauge("nic.ring_high_watermark", "", 4);
  a.MaxGauge("nic.ring_high_watermark", "", 2);  // lower: ignored
  EXPECT_EQ(a.CounterValue("gro.flush", "juggler/size_limit"), 5u);
  EXPECT_EQ(a.GaugeValue("nic.ring_high_watermark", ""), 4u);
  EXPECT_EQ(a.CounterValue("gro.flush", "missing", 77), 77u);

  MetricsRegistry b;
  b.AddCounter("gro.flush", "juggler/size_limit", 10);
  b.MaxGauge("nic.ring_high_watermark", "", 9);
  a.MergeFrom(b);
  EXPECT_EQ(a.CounterValue("gro.flush", "juggler/size_limit"), 15u);
  EXPECT_EQ(a.GaugeValue("nic.ring_high_watermark", ""), 9u);
}

TEST(MetricsRegistryTest, JsonIsDeterministicAndOrdered) {
  // Insert in scrambled order; serialization must not depend on it.
  MetricsRegistry a;
  a.AddCounter("z.last", "", 1);
  a.AddCounter("a.first", "beta", 2);
  a.AddCounter("a.first", "alpha", 3);
  MetricsRegistry b;
  b.AddCounter("a.first", "alpha", 3);
  b.AddCounter("z.last", "", 1);
  b.AddCounter("a.first", "beta", 2);
  EXPECT_EQ(a.ToJson().Dump(1), b.ToJson().Dump(1));
  const std::string dump = a.ToJson().Dump(1);
  EXPECT_LT(dump.find("a.first/alpha"), dump.find("a.first/beta"));
  EXPECT_LT(dump.find("a.first/beta"), dump.find("z.last"));
}

// ---------------------------------------------------------------- recorder --

TEST(FlightRecorderTest, RingOverwriteCountsDropped) {
  FlightRecorder rec(/*shard=*/3, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    rec.Record(i * 10, TraceKind::kGroFlush, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: events 2..5.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, static_cast<uint64_t>(i + 2));
    EXPECT_EQ(events[i].time, (i + 2) * 10);
    EXPECT_EQ(events[i].shard, 3u);
  }
}

TEST(FlightRecorderTest, MergeSortsByTimeShardSeq) {
  FlightRecorder r0(0), r1(1);
  r0.Record(100, TraceKind::kGroFlush, 1);
  r0.Record(300, TraceKind::kGroFlush, 2);
  r1.Record(100, TraceKind::kGroFlush, 3);  // same time as r0's first
  r1.Record(200, TraceKind::kGroFlush, 4);
  const auto merged = MergeTraces({&r0, &r1});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].a, 1u);  // t=100 shard 0
  EXPECT_EQ(merged[1].a, 3u);  // t=100 shard 1
  EXPECT_EQ(merged[2].a, 4u);  // t=200
  EXPECT_EQ(merged[3].a, 2u);  // t=300
  for (size_t i = 1; i < merged.size(); ++i) {
    const auto& p = merged[i - 1];
    const auto& q = merged[i];
    EXPECT_TRUE(p.time < q.time || (p.time == q.time && p.shard < q.shard) ||
                (p.time == q.time && p.shard == q.shard && p.seq < q.seq));
  }
}

// ------------------------------------------------------- run determinism --

ChaosOptions ObsChaosOptions() {
  ChaosOptions opt;
  opt.seed = 7;
  opt.family = FaultFamily::kDelaySpike;
  opt.transfer_bytes = 400'000;
  opt.obs.metrics = true;
  opt.obs.trace = true;
  return opt;
}

// The run collects a non-empty metrics snapshot and trace, and a rerun of
// the same seed reproduces both byte for byte.
TEST(ObsDeterminismTest, MetricsAndTraceByteIdenticalAcrossShardCounts) {
  const ChaosEngineResult one = RunChaosEngine(ObsChaosOptions(), /*use_juggler=*/true);
  ASSERT_TRUE(one.completed);
  ASSERT_FALSE(one.obs.metrics.empty());
  ASSERT_FALSE(one.obs.events.empty());

  const ChaosEngineResult again = RunChaosEngine(ObsChaosOptions(), /*use_juggler=*/true);
  EXPECT_EQ(again.digest, one.digest);
  EXPECT_EQ(again.obs.MetricsJson().Dump(1), one.obs.MetricsJson().Dump(1))
      << "metrics JSON not byte-identical across reruns";
  EXPECT_EQ(again.obs.TraceJson(ChaosTraceNamer()).Dump(1),
            one.obs.TraceJson(ChaosTraceNamer()).Dump(1))
      << "trace JSON not byte-identical across reruns";
}

TEST(ObsDeterminismTest, MergedEventsAreSortedByTimeShardSeq) {
  const ChaosEngineResult r = RunChaosEngine(ObsChaosOptions(), /*use_juggler=*/true);
  ASSERT_GT(r.obs.events.size(), 1u);
  for (size_t i = 1; i < r.obs.events.size(); ++i) {
    const TraceEvent& p = r.obs.events[i - 1];
    const TraceEvent& q = r.obs.events[i];
    const bool ordered = p.time < q.time || (p.time == q.time && p.shard < q.shard) ||
                         (p.time == q.time && p.shard == q.shard && p.seq < q.seq);
    ASSERT_TRUE(ordered) << "event " << i << " out of (time, shard, seq) order";
  }
}

TEST(ObsDeterminismTest, LegacyEngineCollectsObsToo) {
  const ChaosEngineResult r = RunChaosEngine(ObsChaosOptions(), /*use_juggler=*/true);
  EXPECT_TRUE(r.obs.metrics_enabled);
  EXPECT_TRUE(r.obs.trace_enabled);
  EXPECT_FALSE(r.obs.metrics.empty());
  EXPECT_FALSE(r.obs.events.empty());
}

// ------------------------------------------------------------ golden trace --

#ifndef JUGGLER_TEST_GOLDEN_DIR
#define JUGGLER_TEST_GOLDEN_DIR "tests/golden"
#endif

// The Fig. 12/13 coalescing scenario, scripted: in-sequence data held past
// inseq_timeout, then a hole held past ofo_timeout (entering loss recovery),
// then the retransmission that fills it, a PSH flush and a pure ACK. Every
// timestamp is hand-advanced, so the trace is bit-stable across machines.
Json GoldenScenarioTrace() {
  FlightRecorder recorder(/*shard=*/0, /*capacity=*/256);
  GroHarness h([](const CpuCostModel* costs) {
    return std::make_unique<Juggler>(costs, JugglerConfig{});
  });
  h.AttachRecorder(&recorder);
  const FiveTuple flow = TestFlow();

  // Fig. 12: three merged MTUs wait out the 15us inseq_timeout.
  for (int i = 0; i < 3; ++i) {
    h.Receive(MakeDataPacket(flow, static_cast<Seq>(i) * kMss, kMss));
  }
  h.Advance(Us(20));
  h.PollComplete();

  // Fig. 13: a run beyond a hole waits out the 50us ofo_timeout.
  h.Receive(MakeDataPacket(flow, 5 * kMss, kMss));
  h.Advance(Us(60));
  h.PollComplete();

  // The retransmission fills the hole: loss recovery exits.
  h.Receive(MakeDataPacket(flow, 3 * kMss, kMss));
  // Eager PSH flush, then a pure ACK straight through.
  h.Receive(MakeDataPacket(flow, 6 * kMss, kMss, kFlagAck | kFlagPsh));
  h.Receive(MakeAckPacket(flow, 7 * kMss));

  Json full = TraceToJson(recorder.Snapshot(), recorder.dropped(), ChaosTraceNamer());
  // Golden files carry only the build-independent parts: otherData embeds
  // the compiler version string.
  Json stripped = Json::Object();
  stripped.Set("traceEvents", *full.Find("traceEvents"));
  stripped.Set("displayTimeUnit", *full.Find("displayTimeUnit"));
  return stripped;
}

TEST(GoldenTraceTest, CoalescingScenarioMatchesCheckedInTrace) {
  const std::string golden_path =
      std::string(JUGGLER_TEST_GOLDEN_DIR) + "/coalescing_trace.json";
  const std::string current = GoldenScenarioTrace().Dump(1) + "\n";

  if (std::getenv("JUGGLER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << current;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with JUGGLER_REGEN_GOLDEN=1)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), current)
      << "the coalescing-timeout trace changed; if intentional, regenerate with\n"
         "  JUGGLER_REGEN_GOLDEN=1 ./obs_test --gtest_filter='GoldenTraceTest.*'";
}

TEST(GoldenTraceTest, GoldenScenarioEmitsTheExpectedFlushReasons) {
  // Independent of the byte-exact golden: the scenario must keep exercising
  // inseq_timeout, ofo_timeout, seq_before_next, flags and pure_ack — the
  // trace's value is WHICH labelled events it shows a reader.
  const Json trace = GoldenScenarioTrace();
  const Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> reasons;
  int phase_events = 0;
  for (const Json& e : events->items()) {
    std::string name;
    ASSERT_TRUE(e.GetString("name", &name));
    if (name == "gro_flush") {
      const Json* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      std::string reason;
      ASSERT_TRUE(args->GetString("reason", &reason));
      reasons.insert(reason);
    } else if (name == "phase") {
      ++phase_events;
    }
  }
  for (const char* want :
       {"inseq_timeout", "ofo_timeout", "seq_before_next", "flags", "pure_ack"}) {
    EXPECT_TRUE(reasons.count(want) != 0)
        << "golden scenario no longer emits a '" << want << "' flush";
  }
  EXPECT_GE(phase_events, 4) << "golden scenario lost its phase-machine transitions";
}

// ------------------------------------------- COREC hand-off golden trace --

class DiscardSink : public SegmentSink {
 public:
  void OnSegment(Segment) override {}
};

// A compact scripted COREC run: 20 packets against 3 consumers with
// 8-descriptor claim windows, so the third consumer's short window (4
// packets) commits out of order, parks behind the incomplete head windows
// (a recorded stall), and the hand-off stage then releases the contiguous
// runs to GRO in ring order. Everything is a pure simulation of fixed cost
// constants, so the trace is bit-stable across machines.
Json CorecHandoffTrace() {
  EventLoop loop;
  CpuCostModel costs;
  FlightRecorder recorder(/*shard=*/0, /*capacity=*/256);
  DiscardSink sink;
  NicRxConfig cfg;
  cfg.driver = RxDriverKind::kCorec;
  cfg.corec_consumers = 3;
  cfg.corec_claim_window = 8;
  cfg.recorder = &recorder;
  std::unique_ptr<RxDriver> nic = MakeRxDriver(
      &loop, &costs, cfg,
      [](const CpuCostModel* c) -> std::unique_ptr<GroEngine> {
        return std::make_unique<StandardGro>(c);
      },
      &sink);
  const FiveTuple flow = TestFlow();
  for (int i = 0; i < 20; ++i) {
    nic->Accept(MakeDataPacket(flow, static_cast<Seq>(i) * kMss, kMss));
  }
  loop.Run();

  Json full = TraceToJson(recorder.Snapshot(), recorder.dropped(), ChaosTraceNamer());
  Json stripped = Json::Object();
  stripped.Set("traceEvents", *full.Find("traceEvents"));
  stripped.Set("displayTimeUnit", *full.Find("displayTimeUnit"));
  return stripped;
}

TEST(GoldenTraceTest, CorecHandoffMatchesCheckedInTrace) {
  const std::string golden_path =
      std::string(JUGGLER_TEST_GOLDEN_DIR) + "/corec_handoff_trace.json";
  const std::string current = CorecHandoffTrace().Dump(1) + "\n";

  if (std::getenv("JUGGLER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << current;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with JUGGLER_REGEN_GOLDEN=1)";
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), current)
      << "the COREC hand-off trace changed; if intentional, regenerate with\n"
         "  JUGGLER_REGEN_GOLDEN=1 ./obs_test --gtest_filter='GoldenTraceTest.*'";
}

TEST(GoldenTraceTest, CorecScenarioEmitsClaimCommitStallHandoff) {
  // Independent of the byte-exact golden: the scenario must keep showing a
  // reader the full claim -> out-of-order commit -> stall -> in-order
  // hand-off lifecycle.
  const Json trace = CorecHandoffTrace();
  const Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> names;
  for (const Json& e : events->items()) {
    std::string name;
    ASSERT_TRUE(e.GetString("name", &name));
    names.insert(name);
  }
  for (const char* want : {"corec_claim", "corec_commit", "corec_stall", "corec_handoff"}) {
    EXPECT_TRUE(names.count(want) != 0)
        << "COREC golden scenario no longer emits a '" << want << "' event";
  }
}

TEST(ObsDeterminismTest, CorecCountersShardInvariantAndOutOfDigest) {
  // The COREC claim/commit/hand-off counters join the metrics registry only:
  // collecting them never moves the run digest (obs must not perturb
  // reproducibility).
  ChaosOptions opt = ObsChaosOptions();
  opt.rx_driver = RxDriverKind::kCorec;
  const ChaosEngineResult one = RunChaosEngine(opt, /*use_juggler=*/true);
  ASSERT_TRUE(one.completed);
  const std::string metrics1 = one.obs.MetricsJson().Dump(1);
  EXPECT_NE(metrics1.find("nic.corec_claims"), std::string::npos)
      << "COREC families missing from the published metrics";
  EXPECT_GT(one.obs.metrics.CounterValue("nic.corec_handoff_runs", "receiver"), 0u);

  ChaosOptions dark = ObsChaosOptions();
  dark.rx_driver = RxDriverKind::kCorec;
  dark.obs = ObsConfig{};  // metrics + trace off
  const ChaosEngineResult no_obs = RunChaosEngine(dark, /*use_juggler=*/true);
  EXPECT_EQ(no_obs.digest, one.digest) << "collecting COREC counters moved the digest";
  EXPECT_EQ(no_obs.stream_digest, one.stream_digest);
}

}  // namespace
}  // namespace juggler
