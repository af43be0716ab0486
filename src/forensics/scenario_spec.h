// ScenarioSpec: one chaos scenario, fully pinned, as a serializable value.
//
// The forensics layer treats "a run" as data: every knob that can change a
// run's outcome — topology parameters, NIC and GRO timeouts, the fault and
// flap timelines, the RNG seed — lives in one struct that
// round-trips through JSON byte-stably. The fuzz supervisor samples specs,
// the executor runs them in watchdogged children, the shrinker rewrites
// their timelines event by event, and a repro bundle carries one verbatim.
//
// A spec whose override flags are off behaves exactly like the classic
// (family, seed) chaos recipe; Materialize() freezes the seed-derived
// schedules into explicit form so subsequent edits cannot perturb any other
// random draw.

#ifndef JUGGLER_SRC_FORENSICS_SCENARIO_SPEC_H_
#define JUGGLER_SRC_FORENSICS_SCENARIO_SPEC_H_

#include <cstdint>
#include <string>

#include "src/scenario/chaos_scenario.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace juggler {

struct ScenarioSpec {
  // Identity + workload.
  uint64_t seed = 1;
  FaultFamily family = FaultFamily::kMixed;
  uint64_t transfer_bytes = 1'500'000;
  TimeNs time_limit = Ms(800);
  int num_windows = 3;

  // Topology / NIC knobs.
  int64_t link_rate_bps = 10 * kGbps;
  TimeNs base_delay = Us(5);
  TimeNs reorder_delay = Us(250);
  TimeNs int_coalesce = Us(125);

  // Juggler knobs (Table 2 timeouts, gro_table cap).
  TimeNs inseq_timeout = Us(52);
  TimeNs ofo_timeout = Us(300);
  uint64_t max_flows = 64;

  // Receive-path architecture, both hosts (kRss is the classic NAPI model;
  // the JSON key is emitted only when non-default so historical bundles
  // stay byte-identical).
  RxDriverKind rx_driver = RxDriverKind::kRss;

  // Explicit timelines; when the flags are off the run derives both from
  // (family, seed) exactly as RunChaos always has.
  bool use_explicit_faults = false;
  FaultTimeline faults;
  bool use_explicit_flaps = false;
  std::vector<FlapWindow> flaps;

  // Overload pressure windows (always explicit — never seed-derived at run
  // time, so the shrinker edits them freely) plus the pool/ring caps in
  // force while any window is configured. Empty = overload machinery off.
  std::vector<OverloadWindow> overload_windows;
  uint64_t overload_pool_capacity = 8192;
  uint64_t overload_ring_capacity = 0;

  // Test-only planted defects, for validating the forensics pipeline
  // itself: a conservation-law off-by-one in the Juggler flush accounting,
  // and a child that wedges in an infinite loop (exercises the watchdog).
  bool plant_flush_skew = false;
  bool plant_wedge = false;
  // Planted COREC-only defect: permanently wedge the receiver's in-order
  // hand-off stage at its first out-of-order stall, so claimed packets never
  // reach GRO again and the stream integrity oracle fires. Implies the run
  // only fails under rx_driver == kCorec — the shrinker's SimplifyRxDriver
  // pass must therefore keep the corec axis in the minimal repro.
  bool plant_corec_wedge = false;

  // Application workload riding the run (kind == kNone is the classic raw
  // byte transfer). app.plant_stale_token is the app-layer planted defect:
  // retries mint fresh idempotency tokens, so the server executes the same
  // logical request twice and the auditor flags it.
  AppWorkloadOptions app;

  // Members this build did not recognize, preserved in document order and
  // re-emitted verbatim by ToJson(): repro bundles written by newer builds
  // keep replaying here without silently dropping their fields, and so do
  // older bundles carrying retired keys ("shards", "shard_mailbox_capacity",
  // "check_shard_divergence" from the removed sharded engine).
  Json extra = Json::Object();

  // The ChaosOptions this spec pins (audit always on — the auditor is the
  // primary failure oracle).
  ChaosOptions ToChaosOptions() const;

  // Freeze the (family, seed)-derived fault and flap schedules into the
  // explicit fields, so the shrinker's edits are self-contained. No-op for
  // already-explicit specs; the run is bit-identical either way.
  void Materialize();

  // Fault windows + flap windows currently in force (explicit or derived):
  // the "event count" the shrinker minimizes.
  size_t TimelineEvents() const;

  Json ToJson() const;
  static bool FromJson(const Json& json, ScenarioSpec* out, std::string* error);
};

// Bounds for sampled specs, chosen so a correct stack always completes the
// transfer inside time_limit (the fuzzer hunts bugs, not resource limits).
struct SampleLimits {
  uint64_t min_transfer_bytes = 400'000;
  uint64_t max_transfer_bytes = 2'000'000;
  int max_windows = 4;
  // Probability a sampled spec carries an application workload instead of
  // the raw transfer. App draws come from a stream derived from the spec's
  // own seed, so raising or lowering this never shifts the non-app fields
  // of any sampled spec.
  double app_prob = 0.3;
  // Probability a sampled spec carries overload pressure windows. Like the
  // app draws, overload draws come from their own seed-derived stream, so
  // this knob never shifts any other field of a sampled spec.
  double overload_prob = 0.25;
  // Probability a sampled spec runs the COREC receive driver instead of
  // RSS+NAPI. Drawn from its own seed-derived stream (pinned fuzz seeds
  // keep sampling the exact specs they always did).
  double corec_prob = 0.3;
};

// One random spec, every decision drawn from `rng`.
ScenarioSpec SampleScenarioSpec(Rng* rng, const SampleLimits& limits);

}  // namespace juggler

#endif  // JUGGLER_SRC_FORENSICS_SCENARIO_SPEC_H_
