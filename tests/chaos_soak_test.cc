// Differential chaos tests (ctest label: "chaos").
//
// Each test drives the same bulk transfer through Juggler (with structural
// invariant auditing) and through standard GRO under one fault family, over
// several seeds, and requires: both transfers complete, zero invariant
// violations, and byte-identical delivered streams. The determinism tests
// pin the contract that the same seed reproduces a bit-identical run —
// across reruns, sweep threads and GRO dispatch modes.
//
// The 20-seed-per-family acceptance soak lives in bench/chaos_soak; these
// tests keep a representative slice of it in the default `ctest` run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/scenario/chaos_scenario.h"
#include "src/sim/sweep_runner.h"
#include "src/util/thread_budget.h"

namespace juggler {
namespace {

constexpr int kSeedsPerFamily = 4;

void RunFamily(FaultFamily family) {
  for (int s = 0; s < kSeedsPerFamily; ++s) {
    ChaosOptions opt;
    opt.seed = 1 + static_cast<uint64_t>(s);
    opt.family = family;
    const ChaosResult r = RunChaos(opt);
    EXPECT_TRUE(r.juggler.completed)
        << FaultFamilyName(family) << " seed " << opt.seed << ": juggler delivered "
        << r.juggler.bytes_delivered << " of " << opt.transfer_bytes;
    EXPECT_TRUE(r.baseline.completed)
        << FaultFamilyName(family) << " seed " << opt.seed << ": baseline delivered "
        << r.baseline.bytes_delivered << " of " << opt.transfer_bytes;
    EXPECT_EQ(r.juggler.violations, 0u)
        << FaultFamilyName(family) << " seed " << opt.seed << ": "
        << (r.juggler.violation_messages.empty() ? "" : r.juggler.violation_messages.front());
    EXPECT_EQ(r.baseline.violations, 0u)
        << FaultFamilyName(family) << " seed " << opt.seed << ": "
        << (r.baseline.violation_messages.empty() ? ""
                                                  : r.baseline.violation_messages.front());
    EXPECT_TRUE(r.streams_match)
        << FaultFamilyName(family) << " seed " << opt.seed << ": juggler "
        << r.juggler.bytes_delivered << " vs baseline " << r.baseline.bytes_delivered;
    EXPECT_GT(r.juggler.audits, 0u) << "auditor never ran";
  }
}

TEST(ChaosSoakTest, DropBursts) { RunFamily(FaultFamily::kDropBurst); }

TEST(ChaosSoakTest, Duplication) { RunFamily(FaultFamily::kDuplicate); }

TEST(ChaosSoakTest, Corruption) { RunFamily(FaultFamily::kCorrupt); }

TEST(ChaosSoakTest, DelaySpikes) { RunFamily(FaultFamily::kDelaySpike); }

TEST(ChaosSoakTest, LinkFlaps) { RunFamily(FaultFamily::kLinkFlap); }

TEST(ChaosSoakTest, MixedFaults) { RunFamily(FaultFamily::kMixed); }

TEST(ChaosSoakTest, CorruptionRunsSeeChecksumDrops) {
  // The corruption family must actually exercise the NIC's checksum
  // validation path (otherwise the family tests nothing).
  uint64_t total_checksum_drops = 0;
  for (int s = 0; s < kSeedsPerFamily; ++s) {
    ChaosOptions opt;
    opt.seed = 1 + static_cast<uint64_t>(s);
    opt.family = FaultFamily::kCorrupt;
    total_checksum_drops += RunChaos(opt).juggler.checksum_drops;
  }
  EXPECT_GT(total_checksum_drops, 0u);
}

TEST(ChaosSoakTest, SameSeedBitIdenticalDigest) {
  for (FaultFamily family :
       {FaultFamily::kDropBurst, FaultFamily::kDelaySpike, FaultFamily::kLinkFlap,
        FaultFamily::kMixed}) {
    ChaosOptions opt;
    opt.seed = 11;
    opt.family = family;
    const ChaosResult r1 = RunChaos(opt);
    const ChaosResult r2 = RunChaos(opt);
    EXPECT_EQ(r1.juggler.digest, r2.juggler.digest) << FaultFamilyName(family);
    EXPECT_EQ(r1.baseline.digest, r2.baseline.digest) << FaultFamilyName(family);
    EXPECT_EQ(r1.juggler.finish_time, r2.juggler.finish_time) << FaultFamilyName(family);
  }
}

TEST(ChaosSoakTest, DigestsIdenticalAcrossSweepThreads) {
  // The parallel sweep runner gives every worker thread its own PacketPool
  // and each point builds its own world, so a chaos run's digest must not
  // depend on which thread (or how warm a pool) executed it. Run the same
  // points sequentially and on a multi-threaded sweep; bit-identical digests
  // are required.
  const FaultFamily families[] = {FaultFamily::kDropBurst, FaultFamily::kDuplicate,
                                  FaultFamily::kDelaySpike};
  auto point = [&families](size_t i) {
    ChaosOptions opt;
    opt.seed = 11;
    opt.family = families[i];
    return RunChaos(opt);
  };
  const std::vector<ChaosResult> sequential = RunSweep(3, point, /*num_threads=*/1);
  const std::vector<ChaosResult> threaded = RunSweep(3, point, /*num_threads=*/3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sequential[i].juggler.digest, threaded[i].juggler.digest)
        << FaultFamilyName(families[i]);
    EXPECT_EQ(sequential[i].baseline.digest, threaded[i].baseline.digest)
        << FaultFamilyName(families[i]);
    EXPECT_EQ(sequential[i].juggler.finish_time, threaded[i].juggler.finish_time)
        << FaultFamilyName(families[i]);
  }
}

// Batch-dispatch determinism: handing a poll round to GRO as one
// ReceiveBatch (the production path, with fold short-cuts) must be
// observably identical to the packet-by-packet reference loop — byte-equal
// digests for both engines under a reordering-heavy fault mix. Any fold
// that changes a flush decision, a stat, or a cost shows up here as a
// digest split.
TEST(ChaosSoakTest, DigestInvariantUnderPerPacketDispatch) {
  ChaosOptions opt;
  opt.family = FaultFamily::kMixed;
  opt.seed = 11;
  opt.per_packet_dispatch = false;
  const ChaosResult batched = RunChaos(opt);
  EXPECT_TRUE(batched.ok) << "batched";
  opt.per_packet_dispatch = true;
  const ChaosResult per_packet = RunChaos(opt);
  EXPECT_TRUE(per_packet.ok) << "per-packet";
  EXPECT_EQ(batched.juggler.digest, per_packet.juggler.digest) << "juggler batched vs per-packet";
  EXPECT_EQ(batched.baseline.digest, per_packet.baseline.digest)
      << "baseline batched vs per-packet";
}

TEST(ThreadBudgetTest, EnvOverrideAndNestedDegradation) {
  setenv("JUGGLER_THREADS", "3", 1);
  EXPECT_EQ(ThreadBudget::Total(), 3u);
  const size_t outer = ThreadBudget::Acquire(5);
  EXPECT_EQ(outer, 3u);
  // Budget exhausted: an inner layer still gets its own calling thread.
  const size_t inner = ThreadBudget::Acquire(4);
  EXPECT_EQ(inner, 1u);
  ThreadBudget::Release(inner);
  ThreadBudget::Release(outer);
  EXPECT_EQ(ThreadBudget::InUse(), 0u);
  unsetenv("JUGGLER_THREADS");
  EXPECT_GE(ThreadBudget::Total(), 1u);
}

TEST(ChaosSoakTest, DifferentSeedsDifferentFaultPatterns) {
  ChaosOptions a;
  a.seed = 3;
  a.family = FaultFamily::kDropBurst;
  ChaosOptions b = a;
  b.seed = 4;
  EXPECT_NE(RunChaos(a).juggler.digest, RunChaos(b).juggler.digest);
}

}  // namespace
}  // namespace juggler
