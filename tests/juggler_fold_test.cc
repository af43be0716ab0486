// Batch-fold equivalence: ReceiveBatch's folded fast path must be
// observably identical to per-packet Receive — same segments (every field),
// same charged CPU cost, same stats — for ANY input, because a batch
// boundary is a NIC artifact, not a protocol event. Two engines are fed the
// same stream, one per-packet and one in poll-round batches, and compared
// exactly.
//
// The directed cases pin the fold's admission edges: multi-run batches,
// cross-flow interleaving (per-flow run lookup), PSH mid-run, metadata
// changes, sub-MSS packets against the head-run flush bound, duplicates,
// and merge-cap overshoot. The randomized sweep then walks the space of
// reorderings, batch sizes and payload mixes.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/juggler.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

std::unique_ptr<GroHarness> MakeHarness(const JugglerConfig& config) {
  return std::make_unique<GroHarness>(
      [config](const CpuCostModel* c) { return std::make_unique<Juggler>(c, config); });
}

// Every observable Segment field. first_rx/last_rx/sent_time included: the
// fold must reproduce per-packet timestamp bookkeeping, not just byte math.
void ExpectSegmentsIdentical(const std::vector<Segment>& a, const std::vector<Segment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("segment " + std::to_string(i));
    EXPECT_EQ(a[i].flow, b[i].flow);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].payload_len, b[i].payload_len);
    EXPECT_EQ(a[i].mtu_count, b[i].mtu_count);
    EXPECT_EQ(a[i].flags, b[i].flags);
    EXPECT_EQ(a[i].ack_seq, b[i].ack_seq);
    EXPECT_EQ(a[i].ack_rwnd, b[i].ack_rwnd);
    EXPECT_EQ(a[i].ce_mark, b[i].ce_mark);
    EXPECT_EQ(a[i].first_rx_time, b[i].first_rx_time);
    EXPECT_EQ(a[i].last_rx_time, b[i].last_rx_time);
    EXPECT_EQ(a[i].sent_time, b[i].sent_time);
  }
}

void ExpectStatsIdentical(const Juggler& a, const Juggler& b) {
  const GroStats& ga = a.stats();
  const GroStats& gb = b.stats();
  EXPECT_EQ(ga.packets_in, gb.packets_in);
  EXPECT_EQ(ga.acks_in, gb.acks_in);
  EXPECT_EQ(ga.data_packets_in, gb.data_packets_in);
  EXPECT_EQ(ga.ooo_packets, gb.ooo_packets);
  EXPECT_EQ(ga.segments_out, gb.segments_out);
  EXPECT_EQ(ga.data_segments_out, gb.data_segments_out);
  EXPECT_EQ(ga.mtus_out, gb.mtus_out);
  EXPECT_EQ(ga.evictions, gb.evictions);
  for (int r = 0; r < static_cast<int>(FlushReason::kReasonCount); ++r) {
    EXPECT_EQ(ga.flush_by_reason[r], gb.flush_by_reason[r]) << "flush reason " << r;
  }
  const JugglerStats& ja = a.juggler_stats();
  const JugglerStats& jb = b.juggler_stats();
  EXPECT_EQ(ja.flows_created, jb.flows_created);
  EXPECT_EQ(ja.duplicate_packets, jb.duplicate_packets);
  EXPECT_EQ(ja.buffered_bytes_in, jb.buffered_bytes_in);
  EXPECT_EQ(ja.buffered_bytes_out, jb.buffered_bytes_out);
  EXPECT_EQ(ja.evicted_bytes, jb.evicted_bytes);
  EXPECT_EQ(ja.loss_recovery_entries, jb.loss_recovery_entries);
  EXPECT_EQ(ja.loss_recovery_exits, jb.loss_recovery_exits);
  EXPECT_EQ(ja.evictions_inactive, jb.evictions_inactive);
  EXPECT_EQ(ja.evictions_active, jb.evictions_active);
  EXPECT_EQ(ja.evictions_loss, jb.evictions_loss);
  EXPECT_EQ(ja.inseq_timeout_flushes, jb.inseq_timeout_flushes);
  EXPECT_EQ(ja.ofo_timeout_events, jb.ofo_timeout_events);
  EXPECT_EQ(ja.seq_next_backward_moves, jb.seq_next_backward_moves);
  EXPECT_EQ(ja.max_active_list_len, jb.max_active_list_len);
  EXPECT_EQ(ja.max_inactive_list_len, jb.max_inactive_list_len);
  EXPECT_EQ(ja.max_loss_list_len, jb.max_loss_list_len);
  EXPECT_EQ(ja.max_ooo_runs, jb.max_ooo_runs);
  for (int f = 0; f <= kFlowPhaseCount; ++f) {
    for (int t = 0; t < kFlowPhaseCount; ++t) {
      EXPECT_EQ(ja.phase_transitions[f][t], jb.phase_transitions[f][t])
          << "phase edge " << f << " -> " << t;
    }
  }
  for (int p = 0; p < kFlowPhaseCount; ++p) {
    EXPECT_EQ(ja.enqueued_bytes_by_phase[p], jb.enqueued_bytes_by_phase[p]) << "phase " << p;
    EXPECT_EQ(ja.flushed_bytes_by_phase[p], jb.flushed_bytes_by_phase[p]) << "phase " << p;
  }
}

// Clone of the stream for the second engine. Clones share simulation state
// but not pool bookkeeping.
std::vector<PacketPtr> CloneStream(const std::vector<PacketPtr>& stream) {
  std::vector<PacketPtr> out;
  out.reserve(stream.size());
  for (const PacketPtr& p : stream) {
    out.push_back(ClonePacket(*p));
  }
  return out;
}

// Feeds `stream` to two engines: per-packet vs batches of `batch_size`.
// Poll rounds (PollComplete + timer check + time advance) happen at batch
// boundaries in both, so the only difference is the delivery API. When
// `stats_out` is set it receives the per-packet engine's final stats.
void RunEquivalence(std::vector<PacketPtr> stream, size_t batch_size,
                    const JugglerConfig& config = JugglerConfig{},
                    JugglerStats* stats_out = nullptr) {
  std::vector<PacketPtr> batched_stream = CloneStream(stream);
  auto per_packet = MakeHarness(config);
  auto batched = MakeHarness(config);

  TimeNs cost_per_packet = 0;
  TimeNs cost_batched = 0;
  for (size_t base = 0; base < stream.size(); base += batch_size) {
    const size_t n = std::min(batch_size, stream.size() - base);
    for (size_t i = 0; i < n; ++i) {
      cost_per_packet += per_packet->Receive(std::move(stream[base + i]));
    }
    cost_batched += batched->ReceiveBatch(batched_stream.data() + base, n);
    for (GroHarness* h : {per_packet.get(), batched.get()}) {
      h->Advance(Us(3));
      h->PollComplete();
      h->MaybeFireTimer();
    }
    // Same-sized prefixes must already agree; comparing per round localizes
    // a divergence to the batch that caused it.
    ASSERT_EQ(per_packet->delivered().size(), batched->delivered().size())
        << "diverged in batch starting at packet " << base;
  }
  for (GroHarness* h : {per_packet.get(), batched.get()}) {
    for (int i = 0; i < 10; ++i) {
      h->Advance(Ms(1));
      h->PollComplete();
      h->MaybeFireTimer();
    }
  }

  EXPECT_EQ(cost_per_packet, cost_batched) << "charged CPU cost diverged";
  ExpectSegmentsIdentical(per_packet->delivered(), batched->delivered());
  ExpectStatsIdentical(*static_cast<Juggler*>(per_packet->engine()),
                       *static_cast<Juggler*>(batched->engine()));
  if (stats_out != nullptr) {
    *stats_out = static_cast<Juggler*>(per_packet->engine())->juggler_stats();
  }
}

// ---- directed cases ----

TEST(JugglerFoldTest, InOrderSingleFlowRun) {
  std::vector<PacketPtr> stream;
  for (uint32_t i = 0; i < 64; ++i) {
    stream.push_back(MakeDataPacket(TestFlow(), i * kMss, kMss));
  }
  RunEquivalence(std::move(stream), 16);
}

TEST(JugglerFoldTest, CrossFlowInterleavedBatches) {
  // Round-robin across 4 flows: each batch holds 4 interleaved runs, the
  // pattern the per-flow run lookup must get right.
  std::vector<PacketPtr> stream;
  for (uint32_t i = 0; i < 32; ++i) {
    for (uint16_t f = 1; f <= 4; ++f) {
      stream.push_back(MakeDataPacket(TestFlow(f, 9), i * kMss, kMss));
    }
  }
  RunEquivalence(std::move(stream), 16);
}

TEST(JugglerFoldTest, MultiRunBatchAfterReorder) {
  // A displaced packet splits the flow into two buffered runs; subsequent
  // batches extend both. The fold must track run identity, not just tails.
  std::vector<PacketPtr> stream;
  const FiveTuple flow = TestFlow();
  stream.push_back(MakeDataPacket(flow, 0 * kMss, kMss));
  stream.push_back(MakeDataPacket(flow, 5 * kMss, kMss));  // opens run 2
  for (uint32_t i = 6; i < 12; ++i) {
    stream.push_back(MakeDataPacket(flow, i * kMss, kMss));  // extends run 2
  }
  for (uint32_t i = 1; i < 5; ++i) {
    stream.push_back(MakeDataPacket(flow, i * kMss, kMss));  // fills the hole
  }
  for (uint32_t i = 12; i < 40; ++i) {
    stream.push_back(MakeDataPacket(flow, i * kMss, kMss));
  }
  RunEquivalence(std::move(stream), 8);
}

TEST(JugglerFoldTest, PshMidBatchFlushesIdentically) {
  std::vector<PacketPtr> stream;
  for (uint32_t i = 0; i < 48; ++i) {
    const uint8_t flags = (i % 11 == 7) ? (kFlagAck | kFlagPsh) : kFlagAck;
    stream.push_back(MakeDataPacket(TestFlow(), i * kMss, kMss, flags));
  }
  RunEquivalence(std::move(stream), 16);
}

TEST(JugglerFoldTest, MetadataChangeMidBatch) {
  // An options-token change mid-run refuses the merge per Table 2; the fold
  // must stop at exactly the same packet.
  std::vector<PacketPtr> stream;
  for (uint32_t i = 0; i < 48; ++i) {
    PacketPtr p = MakeDataPacket(TestFlow(), i * kMss, kMss);
    p->options_token = i / 10;  // changes every 10 packets
    stream.push_back(std::move(p));
  }
  RunEquivalence(std::move(stream), 16);
}

TEST(JugglerFoldTest, SubMssPacketsHitHeadFlushBoundIdentically) {
  // Per-packet Receive flushes the head run when payload + kMss > max; with
  // sub-MSS packets a naive fold bound (payload + len < max) accumulates
  // past that point and moves the segment boundary. Regression for exactly
  // that divergence.
  std::vector<PacketPtr> stream;
  Seq seq = 0;
  for (uint32_t i = 0; i < 400; ++i) {
    const uint32_t len = (i % 3 == 0) ? 700 : kMss;  // mixed sub-MSS / full
    stream.push_back(MakeDataPacket(TestFlow(), seq, len));
    seq += len;
  }
  RunEquivalence(std::move(stream), 32);
}

TEST(JugglerFoldTest, DuplicatesAndOverlapsMidBatch) {
  std::vector<PacketPtr> stream;
  const FiveTuple flow = TestFlow();
  for (uint32_t i = 0; i < 32; ++i) {
    stream.push_back(MakeDataPacket(flow, i * kMss, kMss));
    if (i % 7 == 3) {
      stream.push_back(MakeDataPacket(flow, (i / 2) * kMss, kMss));  // dup
    }
  }
  RunEquivalence(std::move(stream), 8);
}

TEST(JugglerFoldTest, PureAcksInterleaved) {
  std::vector<PacketPtr> stream;
  const FiveTuple flow = TestFlow();
  for (uint32_t i = 0; i < 48; ++i) {
    stream.push_back(MakeDataPacket(flow, i * kMss, kMss));
    if (i % 5 == 2) {
      stream.push_back(MakeAckPacket(flow.Reversed(), i * kMss));
    }
  }
  RunEquivalence(std::move(stream), 16);
}

TEST(JugglerFoldTest, MergeCapRunsFoldIdentically) {
  // More than kMaxTsoPayload of back-to-back data: both paths must cut
  // segments at the same byte.
  std::vector<PacketPtr> stream;
  for (uint32_t i = 0; i < 3 * 45 + 7; ++i) {
    stream.push_back(MakeDataPacket(TestFlow(), i * kMss, kMss));
  }
  RunEquivalence(std::move(stream), 64);
}

// ---- deep run queue: the Fig. 13 two-lane pattern ----

// One flow split over two FIFO lanes, as in the NetFPGA testbed: even
// packets take the fast lane, odd ones the slow lane. The fast lane alone
// builds one single-packet run per even packet, so after `depth` of them
// the queue holds `depth` runs; the slow lane then fills the oldest holes,
// at the front of that queue, while the fast lane keeps extending the tail.
// Within the slow lane adjacent pairs arrive swapped, so every other fill
// lands one run behind the head rather than on it. Sequence numbers start
// just below 2^32, so the runs straddle the wrap.
constexpr Seq kWrapBase = 0u - 100u * kMss;

JugglerConfig DeepQueueConfig() {
  JugglerConfig config;
  // Tuned for 500us of lane skew (§5.2.1): nothing times out mid-stream.
  config.inseq_timeout = Us(52);
  config.ofo_timeout = Ms(1);
  return config;
}

// `depth` must be even (the slow lane swaps whole pairs).
std::vector<PacketPtr> TwoLaneStream(const FiveTuple& flow, uint32_t depth) {
  std::vector<PacketPtr> stream;
  auto packet = [&](uint32_t index) {
    stream.push_back(MakeDataPacket(flow, kWrapBase + index * kMss, kMss));
  };
  uint32_t fast = 0;
  for (; fast < depth; ++fast) {
    packet(2 * fast);
  }
  for (uint32_t slow = 0; slow < depth; ++slow) {
    packet(2 * (slow ^ 1u) + 1);  // swapped pairs
    packet(2 * fast++);
  }
  return stream;
}

TEST(JugglerFoldTest, DeepTwoLaneQueueAcrossTheWrap) {
  for (size_t batch : {size_t{16}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    JugglerStats stats;
    RunEquivalence(TwoLaneStream(TestFlow(), 240), batch, DeepQueueConfig(), &stats);
    EXPECT_GE(stats.max_ooo_runs, 200u);
  }
}

TEST(JugglerFoldTest, DeepInsertChargesTheModelledListWalk) {
  // The search is galloping, but the charged cost still models the kernel
  // patch's tail-ward list walk: one juggler_ooo_search_per_run per run the
  // packet lands behind.
  GroHarness harness([](const CpuCostModel* c) {
    return std::make_unique<Juggler>(c, DeepQueueConfig());
  });
  const FiveTuple flow = TestFlow();
  constexpr uint32_t kRuns = 240;
  for (uint32_t i = 0; i < kRuns; ++i) {
    harness.Receive(MakeDataPacket(flow, kWrapBase + 2 * i * kMss, kMss));
  }
  const auto& juggler = *static_cast<Juggler*>(harness.engine());
  ASSERT_EQ(juggler.juggler_stats().max_ooo_runs, kRuns);
  ASSERT_TRUE(harness.delivered().empty());
  MetricsRegistry metrics;
  PublishJugglerStats(juggler.juggler_stats(), "rx", &metrics);
  EXPECT_EQ(metrics.GaugeValue("juggler.max_ooo_runs", "rx"), kRuns);
  // Fill the hole after the run that packet 2k opened: the packet extends
  // that run, so the walk steps over the kRuns - k - 1 runs opened after it
  // (earlier fills, all in front of it, leave that count alone), then the
  // next run coalesces away.
  const CpuCostModel& costs = *harness.costs();
  for (uint32_t k : {1u, 10u, 120u, kRuns - 2}) {
    SCOPED_TRACE("hole after run " + std::to_string(k));
    const size_t runs = juggler.DebugSnapshot().front().queue_runs;
    const TimeNs cost =
        harness.Receive(MakeDataPacket(flow, kWrapBase + (2 * k + 1) * kMss, kMss));
    EXPECT_EQ(cost, costs.gro_per_packet + costs.juggler_ooo_insert +
                        static_cast<TimeNs>(kRuns - k - 1) * costs.juggler_ooo_search_per_run);
    EXPECT_EQ(juggler.DebugSnapshot().front().queue_runs, runs - 1);
    EXPECT_TRUE(harness.delivered().empty());
  }
}

// ---- randomized sweep ----

struct FoldSweepParams {
  uint64_t seed;
  uint32_t window;      // reorder displacement
  size_t batch_size;
  uint32_t num_flows;
  bool sub_mss;
};

class JugglerFoldSweepTest : public ::testing::TestWithParam<FoldSweepParams> {};

TEST_P(JugglerFoldSweepTest, BatchedDeliveryIsObservablyPerPacket) {
  const FoldSweepParams p = GetParam();
  Rng rng(p.seed);

  // Per-flow sequences of (seq, len), displaced within the window, then
  // interleaved round-robin with occasional flag/metadata noise.
  const uint32_t packets_per_flow = 240;
  std::vector<std::vector<std::pair<Seq, uint32_t>>> flows(p.num_flows);
  for (auto& f : flows) {
    Seq seq = 0;
    std::vector<std::pair<Seq, uint32_t>> in_order;
    for (uint32_t i = 0; i < packets_per_flow; ++i) {
      const uint32_t len =
          p.sub_mss && rng.NextBool(0.3)
              ? 200 + static_cast<uint32_t>(rng.NextDouble() * (kMss - 200))
              : kMss;
      in_order.emplace_back(seq, len);
      seq += len;
    }
    // Windowed displacement, as in the property tests.
    std::vector<std::pair<double, size_t>> keyed;
    for (size_t i = 0; i < in_order.size(); ++i) {
      keyed.emplace_back(static_cast<double>(i) + rng.NextDouble() * p.window, i);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, index] : keyed) {
      f.push_back(in_order[index]);
    }
  }

  std::vector<PacketPtr> stream;
  for (uint32_t i = 0; i < packets_per_flow; ++i) {
    for (uint32_t f = 0; f < p.num_flows; ++f) {
      const auto [seq, len] = flows[f][i];
      const uint8_t flags =
          rng.NextBool(0.03) ? (kFlagAck | kFlagPsh) : kFlagAck;
      PacketPtr pkt = MakeDataPacket(TestFlow(static_cast<uint16_t>(f + 1), 9), seq, len,
                                     flags);
      if (rng.NextBool(0.02)) {
        pkt->ce_mark = true;
      }
      stream.push_back(std::move(pkt));
    }
  }
  RunEquivalence(std::move(stream), p.batch_size);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JugglerFoldSweepTest,
    ::testing::Values(FoldSweepParams{1, 0, 64, 1, false},   // pure fast path
                      FoldSweepParams{2, 0, 64, 6, false},   // cross-flow folds
                      FoldSweepParams{3, 4, 16, 3, false},   // light reorder
                      FoldSweepParams{4, 25, 32, 4, false},  // multi-run folds
                      FoldSweepParams{5, 0, 64, 2, true},    // sub-MSS, in order
                      FoldSweepParams{6, 12, 48, 5, true},   // sub-MSS + reorder
                      FoldSweepParams{7, 80, 8, 8, true},    // extreme reorder
                      FoldSweepParams{8, 3, 1, 4, false}),   // batch of one
    [](const ::testing::TestParamInfo<FoldSweepParams>& info) {
      const FoldSweepParams& p = info.param;
      return "seed" + std::to_string(p.seed) + "_w" + std::to_string(p.window) + "_b" +
             std::to_string(p.batch_size) + "_f" + std::to_string(p.num_flows) +
             (p.sub_mss ? "_submss" : "");
    });

}  // namespace
}  // namespace juggler
