// Failure-forensics pipeline tests: spec serialization, signature
// classification, watchdogged isolation, and the planted-bug end-to-end
// (supervisor finds it, shrinker minimizes it, bundle replays it).

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "src/forensics/failure_signature.h"
#include "src/forensics/fuzz_supervisor.h"
#include "src/forensics/repro_bundle.h"
#include "src/forensics/scenario_spec.h"
#include "src/forensics/shrinker.h"
#include "src/forensics/spec_executor.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/subprocess.h"

namespace juggler {
namespace {

// Seeds pinned empirically: with the planted flush-skew defect armed, these
// make the supervisor / shrinker hit the conservation violation quickly.
constexpr uint64_t kPlantedFuzzSeed = 3;
constexpr uint64_t kPlantedShrinkSeed = 17;

// ------------------------------------------------------------------ JSON --

TEST(JsonTest, RoundTripsExactIntegers) {
  Json j = Json::Object();
  j.Set("big", Json::Uint(18446744073709551615ULL));
  j.Set("neg", Json::Int(-9223372036854775807LL));
  j.Set("frac", Json::Double(0.25));
  j.Set("flag", Json::Bool(true));
  j.Set("name", Json::Str("x\n\"y\""));
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(j.Dump(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("big")->AsUint(), 18446744073709551615ULL);
  EXPECT_EQ(parsed.Find("neg")->AsInt(), -9223372036854775807LL);
  EXPECT_DOUBLE_EQ(parsed.Find("frac")->AsDouble(), 0.25);
  EXPECT_TRUE(parsed.Find("flag")->AsBool());
  EXPECT_EQ(parsed.Find("name")->AsString(), "x\n\"y\"");
  // Member order is preserved, so Dump is deterministic.
  EXPECT_EQ(j.Dump(), parsed.Dump());
}

TEST(JsonTest, RejectsMalformedInput) {
  Json out;
  std::string error;
  EXPECT_FALSE(Json::Parse("{\"a\": }", &out, &error));
  EXPECT_FALSE(Json::Parse("[1, 2,]", &out, &error));
  EXPECT_FALSE(Json::Parse("", &out, &error));
  EXPECT_FALSE(Json::Parse("{\"a\": 1} trailing", &out, &error));
}

// ---------------------------------------------------------------- Spec ----

TEST(ScenarioSpecTest, JsonRoundTripIsByteStable) {
  Rng rng(7);
  SampleLimits limits;
  for (int i = 0; i < 20; ++i) {
    ScenarioSpec spec = SampleScenarioSpec(&rng, limits);
    if (i % 2 == 0) {
      spec.Materialize();  // exercise explicit timelines too
    }
    const std::string text = spec.ToJson().Dump(2);
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::Parse(text, &parsed, &error)) << error;
    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::FromJson(parsed, &back, &error)) << error;
    EXPECT_EQ(back.ToJson().Dump(2), text) << "spec " << i;
  }
}

TEST(ScenarioSpecTest, MaterializePreservesTheRun) {
  // Freezing the derived schedules into explicit form must not change the
  // run: digests before and after materialization are identical.
  ScenarioSpec spec;
  spec.seed = 11;
  spec.family = FaultFamily::kMixed;
  spec.transfer_bytes = 600'000;
  ScenarioSpec frozen = spec;
  frozen.Materialize();
  EXPECT_GT(frozen.TimelineEvents(), 0u);
  const SpecRunReport a = RunSpecInProcess(spec);
  const SpecRunReport b = RunSpecInProcess(frozen);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
}

TEST(ScenarioSpecTest, FromJsonRejectsBadDocuments) {
  ScenarioSpec out;
  std::string error;
  Json not_object = Json::Array();
  EXPECT_FALSE(ScenarioSpec::FromJson(not_object, &out, &error));

  ScenarioSpec good;
  Json bad_family = good.ToJson();
  bad_family.Set("family", Json::Str("nope"));
  EXPECT_FALSE(ScenarioSpec::FromJson(bad_family, &out, &error));

  Json bad_range = good.ToJson();
  bad_range.Set("transfer_bytes", Json::Uint(0));
  EXPECT_FALSE(ScenarioSpec::FromJson(bad_range, &out, &error));

  Json bad_kind = good.ToJson();
  bad_kind.Set("seed", Json::Str("one"));
  EXPECT_FALSE(ScenarioSpec::FromJson(bad_kind, &out, &error));

  ScenarioSpec with_app;
  with_app.app.kind = AppWorkloadKind::kRpc;
  Json bad_app_kind = with_app.ToJson();
  bad_app_kind.Set("app_kind", Json::Str("nope"));
  EXPECT_FALSE(ScenarioSpec::FromJson(bad_app_kind, &out, &error));

  Json bad_app_range = with_app.ToJson();
  bad_app_range.Set("app_max_attempts", Json::Uint(0));
  EXPECT_FALSE(ScenarioSpec::FromJson(bad_app_range, &out, &error));
}

// App-workload fields ride the spec only when a workload is enabled:
// pre-app specs (and raw-transfer specs) serialize without any app_* key,
// and enabled workloads round-trip byte-stably including the planted flag.
TEST(ScenarioSpecTest, AppWorkloadFieldsRoundTrip) {
  ScenarioSpec raw;
  EXPECT_EQ(raw.ToJson().Dump().find("app_"), std::string::npos);

  ScenarioSpec spec;
  spec.app.kind = AppWorkloadKind::kBulkTransfer;
  spec.app.sessions = 3;
  spec.app.requests_per_session = 7;
  spec.app.response_bytes = 9'999;
  spec.app.chunk_bytes = 32'768;
  spec.app.transfer_bytes_per_session = 3 * 32'768;
  spec.app.issue_interval = Ms(3);
  spec.app.retry.attempt_timeout = Ms(3);
  spec.app.retry.max_attempts = 4;
  spec.app.retry.jitter_pct = 35;
  spec.app.plant_stale_token = true;

  const std::string text = spec.ToJson().Dump(2);
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(text, &parsed, &error)) << error;
  ScenarioSpec back;
  ASSERT_TRUE(ScenarioSpec::FromJson(parsed, &back, &error)) << error;
  EXPECT_EQ(back.app.kind, AppWorkloadKind::kBulkTransfer);
  EXPECT_EQ(back.app.sessions, 3u);
  EXPECT_EQ(back.app.retry.max_attempts, 4u);
  EXPECT_TRUE(back.app.plant_stale_token);
  EXPECT_EQ(back.ToJson().Dump(2), text);
}

// The receive-driver axis rides the spec byte-stably: default (rss) specs
// serialize without the key at all — historical bundles keep their exact
// bytes — and corec specs (with or without the wedge plant) round-trip.
TEST(ScenarioSpecTest, RxDriverFieldRoundTrips) {
  ScenarioSpec rss;
  EXPECT_EQ(rss.ToJson().Dump().find("rx_driver"), std::string::npos);
  EXPECT_EQ(rss.ToJson().Dump().find("plant_corec_wedge"), std::string::npos);

  ScenarioSpec spec;
  spec.rx_driver = RxDriverKind::kCorec;
  spec.plant_corec_wedge = true;
  const std::string text = spec.ToJson().Dump(2);
  EXPECT_NE(text.find("\"rx_driver\": \"corec\""), std::string::npos);
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(text, &parsed, &error)) << error;
  ScenarioSpec back;
  ASSERT_TRUE(ScenarioSpec::FromJson(parsed, &back, &error)) << error;
  EXPECT_EQ(back.rx_driver, RxDriverKind::kCorec);
  EXPECT_TRUE(back.plant_corec_wedge);
  EXPECT_EQ(back.ToJson().Dump(2), text);

  // An unknown driver name is a hard parse error, not a silent rss.
  Json bad = spec.ToJson();
  bad.Set("rx_driver", Json::Str("napi"));
  EXPECT_FALSE(ScenarioSpec::FromJson(bad, &back, &error));
}

// The sampler draws the driver from its own seed-derived stream: flipping
// corec_prob between 0 and 1 flips rx_driver and NOTHING else, so pinned
// fuzz seeds keep sampling the exact specs they always did.
TEST(ScenarioSpecTest, SamplerDrawsRxDriverIndependently) {
  SampleLimits always;
  always.corec_prob = 1.0;
  SampleLimits never;
  never.corec_prob = 0.0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng_a(seed), rng_b(seed);
    ScenarioSpec with = SampleScenarioSpec(&rng_a, always);
    ScenarioSpec without = SampleScenarioSpec(&rng_b, never);
    EXPECT_EQ(with.rx_driver, RxDriverKind::kCorec);
    EXPECT_EQ(without.rx_driver, RxDriverKind::kRss);
    with.rx_driver = RxDriverKind::kRss;  // neutralize the one allowed delta
    EXPECT_EQ(with.ToJson().Dump(2), without.ToJson().Dump(2))
        << "corec_prob perturbed another sampled field at seed " << seed;
  }
}

// Unknown-field safety: members this build does not recognize survive a
// parse/serialize round trip verbatim, and re-serialization is a fixed
// point — so bundles written by newer builds keep replaying here, and
// re-writing one never churns its bytes.
TEST(ScenarioSpecTest, UnknownFieldsArePreservedByteStably) {
  ScenarioSpec spec;
  spec.app.kind = AppWorkloadKind::kRpc;
  Json doc = spec.ToJson();
  doc.Set("future_knob", Json::Uint(7));
  Json future_obj = Json::Object();
  future_obj.Set("nested", Json::Str("opaque"));
  doc.Set("future_obj", std::move(future_obj));

  ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::FromJson(doc, &back, &error)) << error;
  const std::string once = back.ToJson().Dump(2);
  EXPECT_NE(once.find("future_knob"), std::string::npos);
  EXPECT_NE(once.find("\"nested\""), std::string::npos);

  Json reparsed;
  ScenarioSpec again;
  ASSERT_TRUE(Json::Parse(once, &reparsed, &error)) << error;
  ASSERT_TRUE(ScenarioSpec::FromJson(reparsed, &again, &error)) << error;
  EXPECT_EQ(again.ToJson().Dump(2), once);
}

// Repro bundles from builds that still had the sharded engine carry three
// execution-shape keys in the middle of the spec. They must still parse,
// leave the run unchanged, and survive re-serialization through `extra`
// with their values intact, re-serialization being a fixed point.
TEST(ScenarioSpecTest, RetiredShardKeysStillParseAndRoundTrip) {
  ScenarioSpec spec;
  spec.seed = 5;
  const Json current_doc = spec.ToJson();
  Json old_doc = Json::Object();
  for (const auto& member : current_doc.members()) {
    old_doc.Set(member.first, member.second);
    if (member.first == "max_flows") {  // where older builds emitted them
      old_doc.Set("shards", Json::Uint(2));
      old_doc.Set("shard_mailbox_capacity", Json::Uint(16));
      old_doc.Set("check_shard_divergence", Json::Bool(true));
    }
  }

  ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::FromJson(old_doc, &back, &error)) << error;
  ASSERT_NE(back.extra.Find("shards"), nullptr);
  EXPECT_EQ(back.extra.Find("shards")->AsUint(), 2u);
  ASSERT_NE(back.extra.Find("shard_mailbox_capacity"), nullptr);
  EXPECT_EQ(back.extra.Find("shard_mailbox_capacity")->AsUint(), 16u);
  bool divergence = false;
  EXPECT_TRUE(back.extra.GetBool("check_shard_divergence", &divergence));
  EXPECT_TRUE(divergence);
  ScenarioSpec known_only = back;
  known_only.extra = Json::Object();
  EXPECT_EQ(known_only.ToJson().Dump(2), current_doc.Dump(2))
      << "retired keys must not change any run-shaping field";

  const std::string once = back.ToJson().Dump(2);
  Json reparsed;
  ScenarioSpec again;
  ASSERT_TRUE(Json::Parse(once, &reparsed, &error)) << error;
  ASSERT_TRUE(ScenarioSpec::FromJson(reparsed, &again, &error)) << error;
  EXPECT_EQ(again.ToJson().Dump(2), once);
}

// The sampler still consumes the main-stream draws the retired shard-count
// and shard-divergence knobs used, so a pinned fuzz seed samples the same
// specs it always did. Each spec's seed is drawn first, after every draw the
// previous spec made; dropping a draw shifts all of these.
TEST(ScenarioSpecTest, SamplerKeepsPinnedSeedSequence) {
  constexpr uint64_t kPinned[] = {
      0xb358faf74ef9765aULL, 0xf0600caa8d7589d1ULL, 0x47f4a13a670d89aaULL,
      0xeb246dd0cc16bcbeULL, 0xbe7d65e36039b192ULL, 0x837389f54419c77eULL,
      0x645a3a210b1bb4a0ULL, 0x4152ebd2c8af508aULL,
  };
  Rng rng(7);
  const SampleLimits limits;
  for (size_t i = 0; i < std::size(kPinned); ++i) {
    EXPECT_EQ(SampleScenarioSpec(&rng, limits).seed, kPinned[i]) << "spec " << i;
  }
}

// ----------------------------------------------------------- Signatures --

TEST(FailureSignatureTest, NormalizationCollapsesDigitRuns) {
  const FailureSignature a = MakeSignature(
      SignatureKind::kInvariantViolation, "byte conservation broken: in 152 vs out 153 + held 0");
  const FailureSignature b = MakeSignature(
      SignatureKind::kInvariantViolation, "byte conservation broken: in 7 vs out 8 + held 99");
  EXPECT_EQ(a.detail, "byte conservation broken: in # vs out # + held #");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(a == b);

  // Different kind, same detail -> different fingerprint.
  const FailureSignature c = MakeSignature(SignatureKind::kCrashSignal, "in 152 vs out 153");
  EXPECT_NE(a.fingerprint, c.fingerprint);

  // Multi-line detail keeps only the first line.
  const FailureSignature d = MakeSignature(SignatureKind::kException, "line one\nline two");
  EXPECT_EQ(d.detail, "line one");
}

TEST(FailureSignatureTest, JsonRoundTrip) {
  const FailureSignature sig = MakeSignature(SignatureKind::kDeadlockTimeout, "after 1500ms");
  FailureSignature back;
  std::string error;
  ASSERT_TRUE(FailureSignature::FromJson(sig.ToJson(), &back, &error)) << error;
  EXPECT_TRUE(sig == back);
  EXPECT_EQ(back.kind, SignatureKind::kDeadlockTimeout);
}

// ------------------------------------------------------------- Executor --

TEST(SpecExecutorTest, CleanSpecClassifiesClean) {
  ScenarioSpec spec;  // defaults: the classic mixed-family recipe, seed 1
  spec.transfer_bytes = 400'000;
  ExecOptions exec;
  exec.timeout_ms = 60'000;
  const SpecOutcome outcome = ExecuteSpec(spec, exec);
  EXPECT_EQ(outcome.signature.kind, SignatureKind::kClean) << outcome.signature.detail;
  EXPECT_TRUE(outcome.report.ok);
  EXPECT_TRUE(outcome.report.completed);
  EXPECT_NE(outcome.report.digest, 0u);
}

TEST(SpecExecutorTest, ChildReportIsDeterministic) {
  ScenarioSpec spec;
  spec.seed = 5;
  spec.family = FaultFamily::kDropBurst;
  spec.transfer_bytes = 400'000;
  ExecOptions exec;
  exec.timeout_ms = 60'000;
  const SpecOutcome a = ExecuteSpec(spec, exec);
  const SpecOutcome b = ExecuteSpec(spec, exec);
  EXPECT_EQ(a.report.digest, b.report.digest);
  EXPECT_EQ(a.signature.fingerprint, b.signature.fingerprint);
}

TEST(SpecExecutorTest, WatchdogKillsWedgedChildAndClassifiesDeadlock) {
  // The planted infinite loop must be SIGKILLed at the deadline and land in
  // the deadlock-timeout bucket — without stalling this suite.
  ScenarioSpec spec;
  spec.plant_wedge = true;
  ExecOptions exec;
  exec.timeout_ms = 1'000;
  const SpecOutcome outcome = ExecuteSpec(spec, exec);
  EXPECT_EQ(outcome.signature.kind, SignatureKind::kDeadlockTimeout);
  EXPECT_TRUE(outcome.child.timed_out);
  EXPECT_GE(outcome.child.wall_ms, 900);
  EXPECT_LT(outcome.child.wall_ms, 30'000);
}

TEST(SpecExecutorTest, CrashingChildClassifiesCrashSignal) {
  // A JUG_CHECK failure aborts the child; the parent must classify the
  // signal death, not hang or misreport. num_windows < 1 trips the check
  // inside MakeChaosTimeline.
  ScenarioSpec spec;
  spec.num_windows = 1;
  spec.transfer_bytes = 100'000;
  // Build a spec whose child aborts: explicit faults cleared, then force
  // the derived path with an illegal window count by corrupting after
  // validation (simulates a code bug, not a bad bundle).
  spec.num_windows = 0;
  ExecOptions exec;
  exec.timeout_ms = 30'000;
  const SpecOutcome outcome = ExecuteSpec(spec, exec);
  EXPECT_EQ(outcome.signature.kind, SignatureKind::kCrashSignal);
  EXPECT_TRUE(outcome.child.crashed());
}

// -------------------------------------------------- Planted bug, E2E -----

// The acceptance path: a known defect is planted behind a test-only config
// hook (an off-by-one in the Table-2 row-6 ofo-timeout flush accounting),
// the fuzz supervisor must find it, the shrinker must cut the timeline to
// <= 3 events, and the written bundle must replay to the identical
// signature, twice.
TEST(ForensicsEndToEndTest, SupervisorFindsShrinksAndReplaysPlantedBug) {
  const std::string out_dir = testing::TempDir() + "juggler_forensics_bundles";

  FuzzOptions opt;
  opt.seed = kPlantedFuzzSeed;
  opt.num_specs = 8;
  opt.timeout_ms = 60'000;
  opt.plant_flush_skew = true;  // arm the planted defect in every spec
  opt.out_dir = out_dir;
  opt.shrink = true;
  opt.shrink_options.max_runs = 120;
  opt.shrink_options.timeout_ms = 60'000;

  const FuzzReport report = RunFuzz(opt);
  ASSERT_GE(report.findings.size(), 1u) << "supervisor failed to find the planted bug";

  // The planted bug breaks the auditor's conservation law.
  const FuzzFinding* found = nullptr;
  for (const FuzzFinding& f : report.findings) {
    if (f.signature.kind == SignatureKind::kInvariantViolation &&
        f.signature.detail.find("conservation") != std::string::npos) {
      found = &f;
      break;
    }
  }
  ASSERT_NE(found, nullptr) << "no conservation-law finding among "
                            << report.findings.size() << " findings";

  // Shrunk to a minimal recipe.
  EXPECT_LE(found->shrunk.TimelineEvents(), 3u);
  EXPECT_GT(found->shrink_accepted, 0);

  // The bundle replays deterministically: identical signature, twice.
  ASSERT_FALSE(found->bundle_path.empty());
  ReproBundle bundle;
  std::string error;
  ASSERT_TRUE(ReadBundleFile(found->bundle_path, &bundle, &error)) << error;
  EXPECT_TRUE(bundle.signature == found->signature);
  for (int i = 0; i < 2; ++i) {
    const ReplayResult replay = ReplayBundle(bundle, /*timeout_ms=*/60'000);
    EXPECT_TRUE(replay.reproduced) << "replay " << i << " observed "
                                   << SignatureKindName(replay.observed.kind) << ": "
                                   << replay.observed.detail;
    EXPECT_EQ(replay.observed.fingerprint, bundle.signature.fingerprint);
  }
}

// The shrinker must reject candidates that fail *differently*: shrinking a
// planted-skew failure never drifts into e.g. a transfer-incomplete
// signature.
TEST(ForensicsEndToEndTest, ShrinkPreservesSignatureIdentity) {
  ScenarioSpec spec;
  spec.seed = kPlantedShrinkSeed;
  spec.family = FaultFamily::kDropBurst;
  spec.transfer_bytes = 600'000;
  spec.plant_flush_skew = true;

  ExecOptions exec;
  exec.timeout_ms = 60'000;
  const SpecOutcome original = ExecuteSpec(spec, exec);
  ASSERT_EQ(original.signature.kind, SignatureKind::kInvariantViolation)
      << original.signature.detail;

  ShrinkOptions sopt;
  sopt.max_runs = 80;
  sopt.timeout_ms = 60'000;
  const ShrinkResult shrunk = ShrinkSpec(spec, original.signature, sopt);
  EXPECT_LE(shrunk.spec.TimelineEvents(), spec.TimelineEvents());

  // The minimized spec still reproduces the *same* failure.
  const SpecOutcome replay = ExecuteSpec(shrunk.spec, exec);
  EXPECT_EQ(replay.signature.fingerprint, original.signature.fingerprint);
}

// ------------------------------------------------------------- Bundles ---

TEST(ReproBundleTest, FileRoundTrip) {
  ReproBundle bundle;
  bundle.spec.seed = 42;
  bundle.spec.family = FaultFamily::kCorrupt;
  bundle.spec.Materialize();
  bundle.signature = MakeSignature(SignatureKind::kInvariantViolation, "in 1 vs out 2");
  bundle.notes = "unit test";

  const std::string path = testing::TempDir() + "juggler_bundle_roundtrip.json";
  std::string error;
  ASSERT_TRUE(WriteBundleFile(bundle, path, &error)) << error;
  ReproBundle back;
  ASSERT_TRUE(ReadBundleFile(path, &back, &error)) << error;
  EXPECT_TRUE(back.signature == bundle.signature);
  EXPECT_EQ(back.notes, "unit test");
  EXPECT_EQ(back.spec.ToJson().Dump(), bundle.spec.ToJson().Dump());
}

TEST(ReproBundleTest, RejectsCorruptFiles) {
  const std::string path = testing::TempDir() + "juggler_bundle_corrupt.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"version\": 1, \"notes\": \"x\"", f);  // truncated
  std::fclose(f);
  ReproBundle out;
  std::string error;
  EXPECT_FALSE(ReadBundleFile(path, &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ReadBundleFile(testing::TempDir() + "nope_does_not_exist.json", &out, &error));
}

// ----------------------------------------------------------- Subprocess --

TEST(SubprocessTest, CapturesReportAndStderr) {
  const ChildResult r = RunChildWithWatchdog(
      [](int report_fd) {
        WriteAll(report_fd, "hello report");
        std::fputs("hello stderr\n", stderr);
      },
      5'000);
  ASSERT_TRUE(r.forked);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.report, "hello report");
  EXPECT_NE(r.stderr_text.find("hello stderr"), std::string::npos);
  EXPECT_FALSE(r.timed_out);
}

TEST(SubprocessTest, ThrowingChildExits97) {
  const ChildResult r =
      RunChildWithWatchdog([](int) { throw std::runtime_error("child boom"); }, 5'000);
  ASSERT_TRUE(r.forked);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 97);
}

}  // namespace
}  // namespace juggler
