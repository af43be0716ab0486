// Unit tests for the fault-injection layer: FaultStage fault classes and
// determinism, FaultTimeline windowing, link failure modeling (SetDown/SetUp
// and runtime degradation, LinkFlapper), NIC checksum validation of
// corrupted frames, the StreamIntegrityChecker, and the JugglerAuditor.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/juggler.h"
#include "src/fault/audit_log.h"
#include "src/fault/fault_stage.h"
#include "src/fault/juggler_auditor.h"
#include "src/fault/link_flapper.h"
#include "src/fault/stream_integrity.h"
#include "src/net/link.h"
#include "src/net/stages.h"
#include "src/nic/nic_rx.h"
#include "src/scenario/gro_factories.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

// Collects packets with their arrival times.
class CollectorSink : public PacketSink {
 public:
  explicit CollectorSink(EventLoop* loop) : loop_(loop) {}

  void Accept(PacketPtr packet) override {
    arrival_times.push_back(loop_ != nullptr ? loop_->now() : 0);
    packets.push_back(std::move(packet));
  }

  std::vector<TimeNs> arrival_times;
  std::vector<PacketPtr> packets;

 private:
  EventLoop* loop_;
};

// ---------------------------------------------------------- FaultStage ----

TEST(FaultStageTest, PassThroughWithEmptyTimeline) {
  CollectorSink sink(nullptr);
  FaultStage stage(nullptr, "f", FaultTimeline{}, 1, &sink);
  for (int i = 0; i < 100; ++i) {
    stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  EXPECT_EQ(sink.packets.size(), 100u);
  EXPECT_EQ(stage.stats().passed, 100u);
  EXPECT_EQ(stage.drops(), 0u);
}

TEST(FaultStageTest, SameSeedSameFaultPattern) {
  FaultProfile p;
  p.drop_prob = 0.1;
  p.dup_prob = 0.1;
  p.corrupt_prob = 0.05;
  auto run = [&](uint64_t seed) {
    CollectorSink sink(nullptr);
    FaultStage stage(nullptr, "f", FaultTimeline::Always(p), seed, &sink);
    for (int i = 0; i < 2000; ++i) {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    }
    std::vector<Seq> out;
    for (const auto& pk : sink.packets) {
      out.push_back(pk->seq);
    }
    return std::make_pair(out, stage.stats());
  };
  auto [out_a, stats_a] = run(42);
  auto [out_b, stats_b] = run(42);
  auto [out_c, stats_c] = run(43);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(stats_a.drops, stats_b.drops);
  EXPECT_EQ(stats_a.duplicates, stats_b.duplicates);
  EXPECT_EQ(stats_a.corruptions, stats_b.corruptions);
  EXPECT_NE(out_a, out_c);  // different seed, different pattern
}

TEST(FaultStageTest, DuplicateEmitsIdenticalCopyAfterOriginal) {
  FaultProfile p;
  p.dup_prob = 1.0;
  CollectorSink sink(nullptr);
  FaultStage stage(nullptr, "f", FaultTimeline::Always(p), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 7 * kMss, kMss));
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0]->seq, 7 * kMss);
  EXPECT_EQ(sink.packets[1]->seq, 7 * kMss);
  EXPECT_EQ(sink.packets[1]->payload_len, kMss);
  EXPECT_EQ(stage.stats().duplicates, 1u);
}

TEST(FaultStageTest, CorruptMarksButStillForwards) {
  FaultProfile p;
  p.corrupt_prob = 1.0;
  CollectorSink sink(nullptr);
  FaultStage stage(nullptr, "f", FaultTimeline::Always(p), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_TRUE(sink.packets[0]->corrupted);
  EXPECT_EQ(stage.stats().corruptions, 1u);
}

TEST(FaultStageTest, TruncateShortensAndMarksCorrupted) {
  FaultProfile p;
  p.truncate_prob = 1.0;
  CollectorSink sink(nullptr);
  FaultStage stage(nullptr, "f", FaultTimeline::Always(p), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_LT(sink.packets[0]->payload_len, kMss);
  EXPECT_GE(sink.packets[0]->payload_len, 1u);
  EXPECT_TRUE(sink.packets[0]->corrupted);
  EXPECT_EQ(stage.stats().truncations, 1u);
}

TEST(FaultStageTest, BurstDropsConsecutivePackets) {
  FaultProfile p;
  p.burst_prob = 1.0;  // first packet starts a burst...
  p.burst_len_min = 4;
  p.burst_len_max = 4;
  CollectorSink sink(nullptr);
  FaultStage stage(nullptr, "f", FaultTimeline::Always(p), 1, &sink);
  for (int i = 0; i < 4; ++i) {
    stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  // ...and the burst swallows exactly burst_len packets.
  EXPECT_EQ(sink.packets.size(), 0u);
  EXPECT_EQ(stage.stats().bursts_started, 1u);
  EXPECT_EQ(stage.stats().drops, 4u);
  EXPECT_EQ(stage.stats().burst_drops, 4u);
}

TEST(FaultStageTest, DelaySpikeReordersPastSuccessor) {
  EventLoop loop;
  FaultProfile p;
  p.delay_prob = 1.0;
  p.delay_min = Us(100);
  p.delay_max = Us(100);
  FaultTimeline timeline;
  timeline.Add(0, Us(1), p);  // only the first packet is delayed
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", std::move(timeline), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  loop.RunUntil(Us(50));
  stage.Accept(MakeDataPacket(TestFlow(), kMss, kMss));
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0]->seq, kMss);  // undelayed packet overtook
  EXPECT_EQ(sink.packets[1]->seq, 0u);
  EXPECT_EQ(sink.arrival_times[1], Us(100));
  EXPECT_EQ(stage.stats().delayed, 1u);
}

TEST(FaultStageTest, TimelineWindowsGateFaults) {
  EventLoop loop;
  FaultProfile p;
  p.drop_prob = 1.0;
  FaultTimeline timeline;
  timeline.Add(Us(10), Us(20), p);
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", std::move(timeline), 1, &sink);
  auto send_at = [&](TimeNs when, Seq seq) {
    loop.RunUntil(when);
    stage.Accept(MakeDataPacket(TestFlow(), seq, kMss));
  };
  send_at(Us(5), 0);          // before the window: passes
  send_at(Us(15), kMss);      // inside: dropped
  send_at(Us(25), 2 * kMss);  // after: passes
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0]->seq, 0u);
  EXPECT_EQ(sink.packets[1]->seq, 2 * kMss);
  EXPECT_EQ(stage.drops(), 1u);
}

TEST(FaultStageTest, LastMatchingWindowWins) {
  FaultProfile quiet;  // all-zero profile overlaying a drop-everything one
  FaultProfile noisy;
  noisy.drop_prob = 1.0;
  FaultTimeline timeline;
  timeline.Add(0, Us(100), noisy);
  timeline.Add(0, Us(100), quiet);
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", std::move(timeline), 1, &sink);
  stage.Accept(MakeDataPacket(TestFlow(), 0, kMss));
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(FaultStageTest, DropStageAliasKeepsBehavior) {
  // The folded DropStage must still be a clockless uniform dropper with the
  // drops() accessor (bench/fig14 and the topology builders rely on it).
  CollectorSink sink(nullptr);
  DropStage stage(0.5, 99, &sink);
  for (int i = 0; i < 1000; ++i) {
    stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  EXPECT_EQ(stage.drops() + sink.packets.size(), 1000u);
  EXPECT_GT(stage.drops(), 350u);
  EXPECT_LT(stage.drops(), 650u);
}

// ------------------------------------------- NIC checksum validation ------

TEST(NicChecksumTest, CorruptedFrameDiscardedAtNic) {
  EventLoop loop;
  CpuCostModel costs;
  class NullSegSink : public SegmentSink {
   public:
    void OnSegment(Segment) override {}
  } seg_sink;
  NicRxConfig cfg;
  NicRx nic(&loop, &costs, cfg, MakeStandardGroFactory(), &seg_sink);
  auto good = MakeDataPacket(TestFlow(), 0, kMss);
  auto bad = MakeDataPacket(TestFlow(), kMss, kMss);
  bad->corrupted = true;
  nic.Accept(std::move(good));
  nic.Accept(std::move(bad));
  loop.Run();
  EXPECT_EQ(nic.stats().packets_in, 2u);
  EXPECT_EQ(nic.stats().checksum_drops, 1u);
  // Only the clean frame reached GRO.
  EXPECT_EQ(nic.TotalGroStats().packets_in, 1u);
}

// ------------------------------------------------------- Link failures ----

PacketPtr WirePacket(Seq seq) { return MakeDataPacket(TestFlow(), seq, kMss); }

TEST(LinkFailureTest, DownBlackholesArrivalsAndUpResumes) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  link.SetDown();
  EXPECT_TRUE(link.is_down());
  link.Accept(WirePacket(0));
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 0u);
  EXPECT_EQ(link.stats().down_drops, 1u);
  EXPECT_EQ(link.stats().down_transitions, 1u);
  link.SetUp();
  EXPECT_FALSE(link.is_down());
  link.Accept(WirePacket(kMss));
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0]->seq, kMss);
}

TEST(LinkFailureTest, QueuedPacketsSurviveDownWindow) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  // Two packets: the first is in flight when the link goes down; the second
  // waits in the queue across the outage and drains after SetUp.
  link.Accept(WirePacket(0));
  link.Accept(WirePacket(kMss));
  link.SetDown();
  loop.RunUntil(Us(50));
  EXPECT_LE(sink.packets.size(), 1u);  // in-flight frame may complete
  link.SetUp();
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(link.stats().drops, 0u);
}

TEST(LinkFailureTest, RuntimeRateDegradationSlowsSerialization) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  link.Accept(WirePacket(0));
  loop.Run();
  const TimeNs fast = sink.arrival_times[0];
  link.set_rate_bps(1 * kGbps);
  const TimeNs start = loop.now();
  link.Accept(WirePacket(kMss));
  loop.Run();
  const TimeNs slow = sink.arrival_times[1] - start;
  // 10x the serialization time, modulo the ceiling in SerializationTime.
  EXPECT_GE(slow, 10 * fast - 9);
  EXPECT_LE(slow, 10 * fast);
}

TEST(LinkFailureTest, SetDownIdempotent) {
  EventLoop loop;
  CollectorSink sink(&loop);
  Link link(&loop, "l", LinkConfig{}, &sink);
  link.SetDown();
  link.SetDown();
  link.SetUp();
  link.SetUp();
  EXPECT_EQ(link.stats().down_transitions, 1u);
  EXPECT_FALSE(link.is_down());
}

TEST(LinkValidationDeathTest, RedMaxFillMustExceedMinFill) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.red = true;
  cfg.queue_limit_bytes = 100000;
  cfg.red_min_fill = 0.9;
  cfg.red_max_fill = 0.25;  // inverted ramp
  EXPECT_DEATH(Link(&loop, "l", cfg, &sink), "red_max_fill");
}

TEST(LinkValidationDeathTest, RedFillsMustBeFractions) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.red = true;
  cfg.queue_limit_bytes = 100000;
  cfg.red_max_fill = 1.5;  // not a fill fraction
  EXPECT_DEATH(Link(&loop, "l", cfg, &sink), "red_max_fill");
}

TEST(LinkValidationDeathTest, EcnThresholdMustBeFraction) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.ecn = true;
  cfg.queue_limit_bytes = 100000;
  cfg.ecn_threshold_fill = -0.1;
  EXPECT_DEATH(Link(&loop, "l", cfg, &sink), "ecn_threshold_fill");
}

TEST(LinkFlapperTest, SchedulesDownAndUpWindows) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  LinkFlapper flapper(&loop, &link, {FlapWindow{Us(10), Us(20), 0, 0}});
  flapper.Start();
  loop.RunUntil(Us(15));
  EXPECT_TRUE(link.is_down());
  loop.RunUntil(Us(25));
  EXPECT_FALSE(link.is_down());
  EXPECT_EQ(flapper.flaps_started(), 1u);
  EXPECT_EQ(flapper.flaps_finished(), 1u);
}

TEST(LinkFlapperTest, BrownOutDegradesAndRestoresRate) {
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.rate_bps = 10 * kGbps;
  Link link(&loop, "l", cfg, &sink);
  LinkFlapper flapper(&loop, &link, {FlapWindow{Us(10), Us(20), 1 * kGbps, 0}});
  flapper.Start();
  loop.RunUntil(Us(15));
  EXPECT_FALSE(link.is_down());
  EXPECT_EQ(link.rate_bps(), 1 * kGbps);
  loop.RunUntil(Us(25));
  EXPECT_EQ(link.rate_bps(), 10 * kGbps);
}

TEST(LinkFlapperTest, RandomWindowsAreOrderedAndBounded) {
  Rng rng(5);
  auto windows =
      LinkFlapper::MakeRandomWindows(&rng, Ms(100), 5, Us(100), Us(500), true, 10 * kGbps);
  ASSERT_EQ(windows.size(), 5u);
  TimeNs prev_up = 0;
  for (const auto& w : windows) {
    EXPECT_GE(w.down_at, prev_up);  // non-overlapping
    EXPECT_GE(w.up_at - w.down_at, Us(100));
    EXPECT_LE(w.up_at - w.down_at, Us(500));
    EXPECT_EQ(w.degraded_rate_bps, 0);
    prev_up = w.up_at;
  }
}

// ------------------------------------- Timeline windowing edge cases ------

TEST(FaultTimelineTest, OverlappingWindowsLastAddedWins) {
  FaultProfile background;
  background.drop_prob = 0.25;
  FaultProfile episode;
  episode.drop_prob = 1.0;
  FaultTimeline t;
  t.Add(0, Ms(10), background);
  t.Add(Ms(2), Ms(3), episode);  // sharper overlay inside the broad window
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(1))->drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(2))->drop_prob, 1.0);
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(3) - 1)->drop_prob, 1.0);
  EXPECT_DOUBLE_EQ(t.ActiveAt(Ms(3))->drop_prob, 0.25);  // [start, end)
  EXPECT_EQ(t.ActiveAt(Ms(10)), nullptr);
}

TEST(FaultTimelineTest, ZeroDurationWindowIsInert) {
  FaultProfile p;
  p.drop_prob = 1.0;
  FaultTimeline t;
  t.Add(Ms(5), Ms(5), p);
  EXPECT_EQ(t.ActiveAt(Ms(5) - 1), nullptr);
  EXPECT_EQ(t.ActiveAt(Ms(5)), nullptr);  // [start, start) covers nothing
  EXPECT_EQ(t.ActiveAt(Ms(5) + 1), nullptr);

  // Through a stage: a packet landing exactly on the empty window passes.
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultStage stage(&loop, "f", t, 1, &sink);
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(Ms(5) + i - 5, [&stage, i] {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    });
  }
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 10u);
  EXPECT_EQ(stage.drops(), 0u);
}

TEST(FaultStageTest, WindowsEntirelyInThePastNeverFire) {
  // The whole schedule predates the traffic: every packet must pass. This is
  // the shrinker's common intermediate state — workload shortened below the
  // first fault window.
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultProfile p;
  p.drop_prob = 1.0;
  p.burst_prob = 1.0;
  FaultTimeline t;
  t.Add(Us(10), Us(20), p);
  t.Add(Us(30), Us(40), p);
  FaultStage stage(&loop, "f", t, 7, &sink);
  for (int i = 0; i < 20; ++i) {
    loop.ScheduleAt(Ms(1) + i * Us(10), [&stage, i] {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    });
  }
  loop.Run();
  EXPECT_EQ(sink.packets.size(), 20u);
  EXPECT_EQ(stage.drops(), 0u);
  EXPECT_EQ(stage.stats().bursts_started, 0u);
}

TEST(FaultStageTest, BurstContinuesPastWindowEnd) {
  // A drop burst models one physical event; the timeline window closing
  // mid-burst must not resurrect the tail of the burst.
  EventLoop loop;
  CollectorSink sink(&loop);
  FaultProfile p;
  p.burst_prob = 1.0;
  p.burst_len_min = 4;
  p.burst_len_max = 4;
  FaultTimeline t;
  t.Add(0, Us(10), p);
  FaultStage stage(&loop, "f", t, 1, &sink);
  // One packet inside the window triggers the burst; five more arrive after
  // the window closed. The burst swallows the next three of them, the final
  // two pass.
  for (int i = 0; i < 6; ++i) {
    const TimeNs at = i == 0 ? Us(5) : Us(20) + i * Us(10);
    loop.ScheduleAt(at, [&stage, i] {
      stage.Accept(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
    });
  }
  loop.Run();
  EXPECT_EQ(stage.stats().bursts_started, 1u);
  EXPECT_EQ(stage.stats().burst_drops, 4u);
  EXPECT_EQ(stage.stats().drops, 4u);
  EXPECT_EQ(sink.packets.size(), 2u);
}

TEST(LinkFlapperTest, SimulationEndingMidFlapLeavesLinkDown) {
  // A run whose time limit lands inside a flap window observes the link
  // down with the flap started but unfinished — the state forensics sees
  // when a chaos run times out mid-outage. Resuming the loop restores it.
  EventLoop loop;
  CollectorSink sink(&loop);
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  Link link(&loop, "l", cfg, &sink);
  LinkFlapper flapper(&loop, &link, {FlapWindow{Us(10), Us(30), 0, 0}});
  flapper.Start();
  loop.RunUntil(Us(20));  // deadline inside [down_at, up_at)
  EXPECT_TRUE(link.is_down());
  EXPECT_EQ(flapper.flaps_started(), 1u);
  EXPECT_EQ(flapper.flaps_finished(), 0u);
  loop.Run();  // the pending SetUp still fires
  EXPECT_FALSE(link.is_down());
  EXPECT_EQ(flapper.flaps_finished(), 1u);
}

// -------------------------------------------- StreamIntegrityChecker ------

Segment DataSegment(Seq seq, uint32_t len) {
  Segment s;
  s.flow = TestFlow();
  s.seq = seq;
  s.payload_len = len;
  return s;
}

TEST(StreamIntegrityTest, CleanStreamPasses) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(3 * kMss);
  for (int i = 0; i < 3; ++i) {
    checker.OnSegment(DataSegment(static_cast<Seq>(i) * kMss, kMss));
    checker.OnDeliverTotal(static_cast<uint64_t>(i + 1) * kMss);
  }
  EXPECT_TRUE(checker.FinalCheck());
  EXPECT_TRUE(log.clean());
}

TEST(StreamIntegrityTest, NonMonotoneDeliveryFlagged) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.OnDeliverTotal(2 * kMss);
  checker.OnDeliverTotal(kMss);  // rollback
  EXPECT_EQ(log.violations(), 1u);
  checker.OnDeliverTotal(kMss);  // repeat (double delivery)
  EXPECT_EQ(log.violations(), 2u);
}

TEST(StreamIntegrityTest, OverDeliveryFlagged) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(kMss);
  checker.OnDeliverTotal(2 * kMss);  // more bytes than were ever sent
  EXPECT_FALSE(log.clean());
}

TEST(StreamIntegrityTest, IncompleteDeliveryFailsFinalCheck) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(2 * kMss);
  checker.OnSegment(DataSegment(0, kMss));
  checker.OnDeliverTotal(kMss);
  EXPECT_FALSE(checker.FinalCheck());
  EXPECT_FALSE(log.clean());
}

TEST(StreamIntegrityTest, CoverageGapFailsFinalCheck) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(3 * kMss);
  // TCP's counter claims everything arrived, but GRO never surfaced the
  // middle segment: the tap coverage has a hole.
  checker.OnSegment(DataSegment(0, kMss));
  checker.OnSegment(DataSegment(2 * kMss, kMss));
  checker.OnDeliverTotal(3 * kMss);
  EXPECT_FALSE(checker.FinalCheck());
}

TEST(StreamIntegrityTest, RetransmissionOverlapIsLegal) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(2 * kMss);
  checker.OnSegment(DataSegment(0, kMss));
  checker.OnSegment(DataSegment(0, kMss));  // retransmit reaches TCP: fine
  checker.OnSegment(DataSegment(kMss, kMss));
  checker.OnDeliverTotal(2 * kMss);
  EXPECT_TRUE(checker.FinalCheck());
}

// Feeds `totals` to a fresh checker and returns its stream digest.
uint64_t DigestOf(const std::vector<uint64_t>& totals) {
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  for (uint64_t t : totals) {
    checker.OnDeliverTotal(t);
  }
  return checker.stream_digest();
}

// Delivery callbacks advancing from `from` to `to` in `chunk`-byte steps.
std::vector<uint64_t> Chunked(uint64_t from, uint64_t to, uint64_t chunk) {
  std::vector<uint64_t> totals;
  for (uint64_t t = from; t < to;) {
    t = std::min(to, t + chunk);
    totals.push_back(t);
  }
  return totals;
}

TEST(StreamIntegrityTest, DigestIsChunkIndependent) {
  const uint64_t total = 10 * kMss + 7;
  const uint64_t one_call = DigestOf({total});
  EXPECT_EQ(DigestOf(Chunked(0, total, kMss)), one_call);
  EXPECT_EQ(DigestOf(Chunked(0, total, 1)), one_call);
  EXPECT_NE(DigestOf({total + 1}), one_call);
}

TEST(StreamIntegrityTest, DigestSeesAnomaliesAndWhereTheyStruck) {
  const uint64_t end = 3 * kMss;
  const uint64_t clean = DigestOf({kMss, 2 * kMss, end});
  // A repeat (double delivery) and a rollback each end at the same final
  // total as the clean run, and must still hash differently from it.
  const uint64_t repeat = DigestOf({kMss, kMss, 2 * kMss, end});
  const uint64_t rollback = DigestOf({2 * kMss, kMss, end});
  EXPECT_NE(repeat, clean);
  EXPECT_NE(rollback, clean);
  EXPECT_NE(repeat, rollback);
  // The same anomaly at a different position is a different history.
  EXPECT_NE(DigestOf({2 * kMss, 2 * kMss, end}), repeat);
  EXPECT_NE(DigestOf({end, kMss, end}), rollback);

  // Over-delivery is an audit violation, not a digest anomaly.
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.set_expected_bytes(kMss);
  checker.OnDeliverTotal(2 * kMss);
  EXPECT_EQ(log.violations(), 1u);
  EXPECT_EQ(checker.stream_digest(), DigestOf({2 * kMss}));
}

// The digest the checker computed while it hashed every delivered byte:
// FNV-1a over the position-derived content of each in-order byte, with a
// marker folded in per non-increasing callback. Kept here as the reference
// the O(1) digest must agree with.
class ByteFoldReference {
 public:
  void OnDeliverTotal(uint64_t total) {
    if (total <= delivered_) {
      hash_ = (hash_ ^ 0xBADull) * kPrime;
    }
    for (uint64_t pos = delivered_; pos < total; ++pos) {
      hash_ = (hash_ ^ static_cast<uint8_t>((pos * 0x9E3779B97F4A7C15ULL) >> 56)) * kPrime;
    }
    delivered_ = total;
  }
  uint64_t digest() const { return hash_; }

 private:
  static constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t hash_ = 14695981039346656037ULL;
  uint64_t delivered_ = 0;
};

// A random delivery history over totals <= 64 KB: advances to a target
// total, with repeats and rollbacks injected between them. Every anomaly is
// followed by an advance; a trailing anomaly would leave the byte fold
// unable to tell where a rollback landed, which the O(1) digest still can.
// Targets often sit on a coarse grid, so unrelated histories sometimes end
// at the same total and the comparison sees equal pairs, not only unequal.
struct HistoryStep {
  enum Kind { kAdvance, kRepeat, kRollback } kind;
  uint64_t to;
};

std::vector<HistoryStep> RandomHistory(Rng& rng) {
  constexpr uint64_t kMaxTotal = 64 * 1024;
  constexpr uint64_t kGrid = kMss / 4;
  std::vector<HistoryStep> steps;
  uint64_t at = 0;
  bool need_advance = false;
  const int n = static_cast<int>(rng.NextInRange(1, 6));
  for (int i = 0; (i < n || need_advance) && at < kMaxTotal; ++i) {
    const double pick = rng.NextDouble();
    if (!need_advance && at > 0 && pick < 0.2) {
      steps.push_back({HistoryStep::kRepeat, at});
      need_advance = true;
    } else if (!need_advance && at > 0 && pick < 0.4) {
      at = rng.NextBounded(at);
      steps.push_back({HistoryStep::kRollback, at});
      need_advance = true;
    } else {
      uint64_t to = at + static_cast<uint64_t>(rng.NextInRange(1, 8 * kMss));
      if (rng.NextBool(0.5)) {
        to = std::max(at + 1, to / kGrid * kGrid);
      }
      at = std::min(kMaxTotal, to);
      steps.push_back({HistoryStep::kAdvance, at});
      need_advance = false;
    }
  }
  return steps;
}

// One callback sequence realising `steps`, with each advance split into
// randomly sized chunks.
std::vector<uint64_t> Realise(const std::vector<HistoryStep>& steps, Rng& rng) {
  std::vector<uint64_t> totals;
  uint64_t at = 0;
  for (const HistoryStep& step : steps) {
    if (step.kind != HistoryStep::kAdvance) {
      totals.push_back(step.to);
    } else {
      const uint64_t chunk = rng.NextBool(0.3) ? step.to - at
                                               : static_cast<uint64_t>(rng.NextInRange(1, 3 * kMss));
      const std::vector<uint64_t> chunks = Chunked(at, step.to, chunk);
      totals.insert(totals.end(), chunks.begin(), chunks.end());
    }
    at = step.to;
  }
  return totals;
}

TEST(StreamIntegrityTest, DigestEqualityMatchesPerByteReference) {
  // Hundreds of deliberate anomalies: keep their warnings off the output.
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  Rng rng(0x5EED);
  std::vector<uint64_t> fresh;
  std::vector<uint64_t> reference;
  for (int h = 0; h < 300; ++h) {
    const std::vector<HistoryStep> steps = RandomHistory(rng);
    for (int r = 0; r < 2; ++r) {
      ByteFoldReference ref;
      const std::vector<uint64_t> totals = Realise(steps, rng);
      for (uint64_t t : totals) {
        ref.OnDeliverTotal(t);
      }
      fresh.push_back(DigestOf(totals));
      reference.push_back(ref.digest());
    }
  }
  SetLogLevel(saved_level);
  size_t equal_pairs = 0;
  size_t unequal_pairs = 0;
  for (size_t i = 0; i < fresh.size(); ++i) {
    for (size_t j = i + 1; j < fresh.size(); ++j) {
      const bool ref_equal = reference[i] == reference[j];
      ASSERT_EQ(fresh[i] == fresh[j], ref_equal) << "sequences " << i << " and " << j;
      ++(ref_equal ? equal_pairs : unequal_pairs);
    }
  }
  // Every history was realised twice, so at least that many pairs agree.
  EXPECT_GE(equal_pairs, 300u);
  EXPECT_GT(unequal_pairs, 0u);
}

TEST(StreamIntegrityTest, DigestWorkIsIndependentOfBytesDelivered) {
  // A terabyte in one callback: the per-byte fold would run for about an
  // hour here, the digest must not.
  AuditLog log;
  StreamIntegrityChecker checker("t", &log);
  checker.OnDeliverTotal(1ULL << 40);
  EXPECT_EQ(checker.delivered_total(), 1ULL << 40);
  EXPECT_EQ(checker.stream_digest(), DigestOf(Chunked(0, 1ULL << 40, 1ULL << 38)));
  EXPECT_TRUE(log.clean());
}

// ------------------------------------------------------ JugglerAuditor ----

GroHarness MakeAuditedJuggler(AuditLog* log, JugglerConfig config = {}) {
  return GroHarness([log, config](const CpuCostModel* c) {
    return std::make_unique<JugglerAuditor>(std::make_unique<Juggler>(c, config), log);
  });
}

TEST(JugglerAuditorTest, CleanOnInOrderTraffic) {
  AuditLog log;
  GroHarness h = MakeAuditedJuggler(&log);
  for (int i = 0; i < 45; ++i) {
    h.Receive(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  h.PollComplete();
  auto* auditor = static_cast<JugglerAuditor*>(h.engine());
  EXPECT_GT(auditor->audits(), 0u);
  EXPECT_TRUE(log.clean());
}

TEST(JugglerAuditorTest, CleanAcrossReorderingTimeoutsAndEviction) {
  AuditLog log;
  JugglerConfig config;
  config.max_flows = 4;
  config.inseq_timeout = Us(15);
  config.ofo_timeout = Us(50);
  GroHarness h = MakeAuditedJuggler(&log, config);
  // Out-of-order arrivals with holes across many flows on a tiny table:
  // exercises build-up, active merging, loss recovery, and all three
  // eviction classes, auditing structure after every poll and timer.
  for (int round = 0; round < 30; ++round) {
    for (uint16_t f = 0; f < 8; ++f) {
      const Seq base = static_cast<Seq>(round) * 4 * kMss;
      h.Receive(MakeDataPacket(TestFlow(f, 1), base + 2 * kMss, kMss));
      h.Receive(MakeDataPacket(TestFlow(f, 1), base, kMss));
      if (round % 3 != 0) {  // leave a hole every third round
        h.Receive(MakeDataPacket(TestFlow(f, 1), base + kMss, kMss));
      }
    }
    h.Advance(Us(20));
    h.PollComplete();
    h.MaybeFireTimer();
    h.Advance(Us(40));
    h.MaybeFireTimer();
  }
  auto* auditor = static_cast<JugglerAuditor*>(h.engine());
  EXPECT_GT(auditor->inner()->juggler_stats().evictions_inactive +
                auditor->inner()->juggler_stats().evictions_active +
                auditor->inner()->juggler_stats().evictions_loss,
            0u);
  EXPECT_TRUE(log.clean()) << (log.messages().empty() ? "" : log.messages().front());
}

TEST(JugglerAuditorTest, StatsMirrorInnerEngine) {
  AuditLog log;
  GroHarness h = MakeAuditedJuggler(&log);
  for (int i = 0; i < 10; ++i) {
    h.Receive(MakeDataPacket(TestFlow(), static_cast<Seq>(i) * kMss, kMss));
  }
  h.PollComplete();
  auto* auditor = static_cast<JugglerAuditor*>(h.engine());
  // The wrapper's GroStats must track the inner engine's so NicRx's
  // aggregated accounting does not lose the audited engine's counters.
  EXPECT_EQ(h.engine()->stats().packets_in, auditor->inner()->stats().packets_in);
  EXPECT_EQ(h.engine()->stats().segments_out, auditor->inner()->stats().segments_out);
  EXPECT_GT(h.engine()->stats().packets_in, 0u);
}

TEST(AuditLogTest, CountsUnboundedMessagesBounded) {
  AuditLog log;
  for (int i = 0; i < 200; ++i) {
    log.Violation("t", "v" + std::to_string(i));
  }
  EXPECT_EQ(log.violations(), 200u);
  EXPECT_EQ(log.messages().size(), AuditLog::kMaxMessages);
  EXPECT_FALSE(log.clean());
  log.Clear();
  EXPECT_TRUE(log.clean());
}

// Juggler::Audit() itself: the view reflects the engine's structure.
TEST(JugglerAuditViewTest, ViewMatchesListsAndBytes) {
  JugglerConfig config;
  GroHarness h([config](const CpuCostModel* c) {
    return std::make_unique<Juggler>(c, config);
  });
  auto* jug = static_cast<Juggler*>(h.engine());
  // Flow 1 holds a run beyond a hole (stays buffered after the in-sequence
  // flush); flow 2 flushes clean and goes inactive.
  h.Receive(MakeDataPacket(TestFlow(1, 1), 0, kMss));
  h.Receive(MakeDataPacket(TestFlow(1, 1), 2 * kMss, kMss));
  h.Receive(MakeDataPacket(TestFlow(2, 1), 0, kMss));
  h.Advance(Us(20));
  h.PollComplete();
  const Juggler::AuditView view = jug->Audit();
  EXPECT_EQ(view.table_size, 2u);
  EXPECT_EQ(view.active_len + view.inactive_len + view.loss_len, view.table_size);
  uint64_t held = 0;
  for (const auto& f : view.flows) {
    EXPECT_NE(f.list, Juggler::ListId::kNone);
    held += f.buffered_bytes;
  }
  EXPECT_EQ(held, static_cast<uint64_t>(kMss));  // the un-flushed hole run
  EXPECT_EQ(view.buffered_bytes_in, view.buffered_bytes_out + held);
}

}  // namespace
}  // namespace juggler
