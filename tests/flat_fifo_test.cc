// FlatFifo against a plain std::vector: seeded mixes of appends, positional
// inserts and erases, pops and clears must leave identical contents after
// every operation, while capacity stays within 2x the high-water live count.
// Also pins RunInsertIndex — Juggler's galloping search over a FlatFifo of
// runs — to the tail-ward linear scan it replaces, across the 2^32 wrap.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/juggler.h"
#include "src/util/flat_fifo.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

void ExpectSame(const FlatFifo<uint32_t>& fifo, const std::vector<uint32_t>& ref) {
  ASSERT_EQ(fifo.size(), ref.size());
  ASSERT_EQ(fifo.empty(), ref.empty());
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(fifo[i], ref[i]) << "index " << i;
  }
  size_t i = 0;
  for (uint32_t v : fifo) {
    ASSERT_EQ(v, ref[i++]);
  }
  if (!ref.empty()) {
    ASSERT_EQ(fifo.front(), ref.front());
  }
}

// Capacity bound: never more than twice the most elements ever held at once.
void ExpectCapacityBound(const FlatFifo<uint32_t>& fifo, size_t high_water) {
  EXPECT_LE(fifo.capacity(), 2 * high_water);
}

TEST(FlatFifoTest, EmptyQueueOwnsNoHeap) {
  FlatFifo<uint32_t> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.size(), 0u);
  EXPECT_EQ(fifo.capacity(), 0u);
  EXPECT_EQ(fifo.begin(), fifo.end());
}

TEST(FlatFifoTest, OneElementEveryWay) {
  FlatFifo<uint32_t> fifo;
  fifo.insert(0, 7);
  ExpectSame(fifo, {7});
  fifo.erase(0);
  ExpectSame(fifo, {});
  fifo.emplace_back(8);
  ExpectSame(fifo, {8});
  fifo.pop_front();
  ExpectSame(fifo, {});
  fifo.push_back(9);
  fifo.clear();
  ExpectSame(fifo, {});
  EXPECT_LE(fifo.capacity(), 2u);
  fifo.push_back(10);
  fifo.shrink();
  ExpectSame(fifo, {});
  EXPECT_EQ(fifo.capacity(), 0u);
}

TEST(FlatFifoTest, GrowthKeepsOrderAndBound) {
  FlatFifo<uint32_t> fifo;
  std::vector<uint32_t> ref;
  for (uint32_t v = 0; v < 1000; ++v) {
    fifo.push_back(v);
    ref.push_back(v);
    ExpectCapacityBound(fifo, ref.size());
  }
  ExpectSame(fifo, ref);
}

TEST(FlatFifoTest, SteadyFifoReclaimsItsPrefixWithoutGrowing) {
  // A queue holding 100 elements through 10,000 pop/push pairs: the dead
  // prefix must be slid or reclaimed at append time, so capacity settles at
  // its 2x bound instead of tracking the total ever pushed.
  FlatFifo<uint32_t> fifo;
  std::vector<uint32_t> ref;
  for (uint32_t v = 0; v < 100; ++v) {
    fifo.push_back(v);
    ref.push_back(v);
  }
  for (uint32_t v = 100; v < 10100; ++v) {
    fifo.pop_front();
    ref.erase(ref.begin());
    fifo.push_back(v);
    ref.push_back(v);
    ExpectCapacityBound(fifo, 100);
  }
  ExpectSame(fifo, ref);
}

TEST(FlatFifoTest, FrontEraseOpensRoomForFrontInsert) {
  // Erasing near the front shifts the prefix up; the freed slot below the
  // head then takes a front insert without moving the long suffix or
  // growing the buffer.
  FlatFifo<uint32_t> fifo;
  std::vector<uint32_t> ref;
  for (uint32_t v = 0; v < 64; ++v) {
    fifo.push_back(v * 10);
    ref.push_back(v * 10);
  }
  const size_t cap = fifo.capacity();
  for (uint32_t round = 0; round < 200; ++round) {
    const size_t i = round % 5;
    fifo.erase(i);
    ref.erase(ref.begin() + static_cast<long>(i));
    fifo.insert(i, round);
    ref.insert(ref.begin() + static_cast<long>(i), round);
    ExpectSame(fifo, ref);
    EXPECT_EQ(fifo.capacity(), cap);
  }
}

struct OpMix {
  uint64_t seed;
  int append;     // weights of each operation
  int insert;
  int erase;
  int pop;
  int clear;
  bool front_bias;  // positional ops pick indices near the front
};

class FlatFifoDifferentialTest : public ::testing::TestWithParam<OpMix> {};

TEST_P(FlatFifoDifferentialTest, MatchesVectorAfterEveryOperation) {
  const OpMix mix = GetParam();
  Rng rng(mix.seed);
  FlatFifo<uint32_t> fifo;
  std::vector<uint32_t> ref;
  size_t high_water = 0;
  const int total = mix.append + mix.insert + mix.erase + mix.pop + mix.clear;
  auto pick_index = [&](size_t n) -> size_t {
    if (n == 0) {
      return 0;
    }
    if (mix.front_bias && rng.NextBool(0.8)) {
      return static_cast<size_t>(rng.NextBounded(std::min<uint64_t>(n, 4)));
    }
    return static_cast<size_t>(rng.NextBounded(n));
  };
  for (uint32_t step = 0; step < 20000; ++step) {
    int roll = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(total)));
    if ((roll -= mix.append) < 0) {
      fifo.emplace_back(step);
      ref.push_back(step);
    } else if ((roll -= mix.insert) < 0) {
      const size_t i = pick_index(ref.size() + 1);
      fifo.insert(i, step);
      ref.insert(ref.begin() + static_cast<long>(i), step);
    } else if ((roll -= mix.erase) < 0) {
      if (ref.empty()) continue;
      const size_t i = pick_index(ref.size());
      fifo.erase(i);
      ref.erase(ref.begin() + static_cast<long>(i));
    } else if ((roll -= mix.pop) < 0) {
      if (ref.empty()) continue;
      fifo.pop_front();
      ref.erase(ref.begin());
    } else {
      fifo.clear();
      ref.clear();
    }
    high_water = std::max(high_water, ref.size());
    ExpectSame(fifo, ref);
    ExpectCapacityBound(fifo, high_water);
    if (HasFatalFailure()) {
      FAIL() << "diverged at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, FlatFifoDifferentialTest,
    ::testing::Values(OpMix{1, 10, 0, 0, 10, 0, false},   // plain FIFO
                      OpMix{2, 6, 4, 4, 3, 0, false},     // uniform positions
                      OpMix{3, 5, 5, 5, 2, 0, true},      // holes filled at the front
                      OpMix{4, 8, 3, 2, 6, 1, true},      // with clears
                      OpMix{5, 3, 2, 3, 3, 0, false},     // hovers near empty
                      OpMix{6, 12, 1, 1, 1, 0, true}),    // grows deep
    [](const ::testing::TestParamInfo<OpMix>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---- Juggler's run search ----

size_t LinearInsertIndex(const RunQueue& queue, Seq seq) {
  size_t idx = queue.size();
  while (idx > 0 && SeqAfter(queue[idx - 1].start_seq(), seq)) {
    --idx;
  }
  return idx;
}

void AppendRun(RunQueue* queue, Seq start, uint32_t len) {
  PacketPtr p = MakeDataPacket(TestFlow(), start, len);
  queue->emplace_back().Start(*p);
}

void ExpectGallopMatchesScan(const RunQueue& queue, Seq seq) {
  ASSERT_EQ(RunInsertIndex(queue, seq), LinearInsertIndex(queue, seq))
      << "runs " << queue.size() << ", seq " << seq;
}

TEST(RunInsertIndexTest, MatchesLinearScanAcrossTheWrap) {
  Rng rng(11);
  // Bases put the runs before, across and after the 2^32 wrap.
  for (Seq base : {Seq{0}, Seq{1000}, Seq{0xFFFF0000u}, Seq{0xFFFFFFFFu - 200 * kMss},
                   Seq{0x7FFF0000u}}) {
    for (size_t runs : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64},
                        size_t{257}}) {
      RunQueue queue;
      // A few popped runs first, so the live range sits above the head.
      for (int k = 0; k < 3; ++k) {
        AppendRun(&queue, base - 1000, 10);
      }
      for (int k = 0; k < 3; ++k) {
        queue.pop_front();
      }
      Seq start = base;
      for (size_t r = 0; r < runs; ++r) {
        const uint32_t len = kMss * (1 + static_cast<uint32_t>(rng.NextBounded(4)));
        AppendRun(&queue, start, len);
        start += len + kMss * (1 + static_cast<uint32_t>(rng.NextBounded(3)));
      }
      // Every run start, one byte either side, mid-run and mid-gap bytes,
      // plus points before the first and after the last run.
      ExpectGallopMatchesScan(queue, base - 5 * kMss);
      ExpectGallopMatchesScan(queue, start + 5 * kMss);
      for (const SegmentBuilder& run : queue) {
        for (Seq s : {run.start_seq() - 1, run.start_seq(), run.start_seq() + 1,
                      run.end_seq() - 1, run.end_seq(), run.end_seq() + 1}) {
          ExpectGallopMatchesScan(queue, s);
        }
      }
      for (int q = 0; q < 200; ++q) {
        ExpectGallopMatchesScan(
            queue, base - kMss + static_cast<Seq>(rng.NextBounded(start - base + 2 * kMss)));
      }
    }
  }
}

}  // namespace
}  // namespace juggler
