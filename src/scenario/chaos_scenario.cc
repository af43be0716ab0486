#include "src/scenario/chaos_scenario.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "src/core/juggler.h"
#include "src/fault/audit_log.h"
#include "src/fault/juggler_auditor.h"
#include "src/fault/link_flapper.h"
#include "src/fault/stream_integrity.h"
#include "src/scenario/app_traffic.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/topologies.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace juggler {
namespace {

// FNV-1a, folded over every counter that must reproduce bit-identically.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

FaultProfile DropBurstProfile(Rng* rng) {
  FaultProfile p;
  p.burst_prob = 0.002 + rng->NextDouble() * 0.004;
  p.burst_len_min = 2;
  p.burst_len_max = 2 + static_cast<int>(rng->NextBounded(5));
  p.drop_prob = rng->NextDouble() * 0.002;
  return p;
}

FaultProfile DuplicateProfile(Rng* rng) {
  FaultProfile p;
  p.dup_prob = 0.02 + rng->NextDouble() * 0.06;
  return p;
}

FaultProfile CorruptProfile(Rng* rng) {
  FaultProfile p;
  p.corrupt_prob = 0.005 + rng->NextDouble() * 0.01;
  p.truncate_prob = rng->NextDouble() * 0.005;
  return p;
}

FaultProfile DelaySpikeProfile(Rng* rng) {
  FaultProfile p;
  p.delay_prob = 0.01 + rng->NextDouble() * 0.03;
  p.delay_min = Us(100);
  p.delay_max = Us(100) + rng->NextInRange(Us(200), Us(700));
  return p;
}

// The transfer's line-rate duration, the anchor for fault and flap windows —
// anchoring to the (generous) time budget would schedule every fault after
// the last byte already landed.
TimeNs NominalTransferTime(const ChaosOptions& opt) {
  return static_cast<TimeNs>(static_cast<int64_t>(opt.transfer_bytes) * 8 * 1'000'000'000LL /
                             opt.link_rate_bps);
}

// The engine name a (stack, audit) combination reports and digests under.
std::string EngineName(const ChaosOptions& opt, StackKind stack) {
  switch (stack) {
    case StackKind::kJuggler:
      return opt.audit ? "juggler+audit" : "juggler";
    case StackKind::kVanilla:
      return "standard-gro";
    case StackKind::kPresto:
      return "presto-gro";
  }
  return "?";
}

// The NetFPGA options a chaos run uses.
NetFpgaOptions ChaosTestbedOptions(const ChaosOptions& opt, StackKind stack, AuditLog* log,
                                   FlightRecorder* recorder) {
  NetFpgaOptions nopt;
  nopt.link_rate_bps = opt.link_rate_bps;
  nopt.base_delay = opt.base_delay;
  nopt.reorder_delay = opt.reorder_delay;
  nopt.seed = opt.seed * 2654435761ULL + static_cast<uint64_t>(opt.family);
  nopt.sender.rx.int_coalesce = opt.int_coalesce;
  nopt.sender.rx.recorder = recorder;
  nopt.sender.rx.per_packet_dispatch = opt.per_packet_dispatch;
  nopt.sender.rx.driver = opt.rx_driver;
  nopt.sender.gro_factory = MakeStandardGroFactory();
  nopt.receiver.rx.int_coalesce = opt.int_coalesce;
  nopt.receiver.rx.recorder = recorder;
  nopt.receiver.rx.per_packet_dispatch = opt.per_packet_dispatch;
  nopt.receiver.rx.driver = opt.rx_driver;
  // The hand-off wedge plant targets the receiver: that is where the data
  // stream (and so the integrity oracle) lives.
  nopt.receiver.rx.debug_corec_wedge_depth = opt.plant_corec_wedge_depth;

  JugglerConfig jcfg;
  jcfg.inseq_timeout = opt.inseq_timeout;
  jcfg.ofo_timeout = opt.ofo_timeout;
  jcfg.max_flows = opt.max_flows;
  jcfg.debug_flush_accounting_skew = opt.plant_flush_skew;
  switch (stack) {
    case StackKind::kJuggler:
      nopt.receiver.gro_factory =
          opt.audit ? MakeAuditedJugglerFactory(jcfg, log) : MakeJugglerFactory(jcfg);
      break;
    case StackKind::kVanilla:
      nopt.receiver.gro_factory = MakeStandardGroFactory();
      break;
    case StackKind::kPresto:
      nopt.receiver.gro_factory = MakePrestoGroFactory();
      break;
  }

  nopt.faults = opt.use_explicit_faults ? opt.fault_override : DeriveChaosFaults(opt);
  return nopt;
}

// Link flaps: blackhole windows on the forward path, short relative to
// TCP's max RTO (200ms) so the sender always recovers. `loop` must be the
// loop `fwd_link` runs on.
std::unique_ptr<LinkFlapper> MaybeStartFlapper(const ChaosOptions& opt, EventLoop* loop,
                                               Link* fwd_link) {
  std::vector<FlapWindow> windows =
      opt.use_explicit_flaps ? opt.flap_override : DeriveChaosFlaps(opt);
  if (windows.empty()) {
    return nullptr;
  }
  auto flapper = std::make_unique<LinkFlapper>(loop, fwd_link, std::move(windows));
  flapper->Start();
  return flapper;
}

// Overload wiring: the run's one loop and factory, and the ambient
// thread-local pool that every packet of the run comes from.
OverloadWiring MakeOverloadWiring(const ChaosOptions& opt, SimWorld* world, Host* sender,
                                  Host* receiver, FaultStage* fault) {
  OverloadWiring w;
  w.loop = &world->loop;
  w.inject = receiver->wire_in();
  w.factory = &world->factory;
  w.receiver_nic = receiver->nic_rx();
  w.sender_tx = &sender->nic_tx()->stats();
  w.receiver_tx = &receiver->nic_tx()->stats();
  w.fault = fault != nullptr ? &fault->stats() : nullptr;
  w.pool = &PacketPool::ThreadLocal();
  w.target_ip = receiver->ip();
  w.pool_capacity = opt.overload.pool_capacity;
  w.ring_capacity = opt.overload.ring_capacity;
  w.gro_flow_cap = opt.max_flows;
  return w;
}

// Per-layer metrics snapshot, taken after the run completes.
void PublishChaosMetrics(const NetFpgaTestbed* t, const EndpointPair* pair, LinkFlapper* flapper,
                         StackKind stack, const AppHarness* app, MetricsRegistry* m) {
  PublishNicRxStats(t->sender->nic_rx()->stats(), "sender", m);
  PublishNicRxStats(t->receiver->nic_rx()->stats(), "receiver", m);
  if (const CorecRxStats* cs = t->sender->nic_rx()->corec_stats()) {
    PublishCorecRxStats(*cs, "sender", m);
  }
  if (const CorecRxStats* cs = t->receiver->nic_rx()->corec_stats()) {
    PublishCorecRxStats(*cs, "receiver", m);
  }
  PublishNicTxStats(t->sender->nic_tx()->stats(), "sender", m);
  PublishNicTxStats(t->receiver->nic_tx()->stats(), "receiver", m);
  PublishGroStats(t->receiver->nic_rx()->TotalGroStats(),
                  stack == StackKind::kJuggler
                      ? "juggler"
                      : (stack == StackKind::kPresto ? "presto" : "baseline"),
                  m);
  for (size_t q = 0; q < t->receiver->nic_rx()->num_queues(); ++q) {
    GroEngine* engine = t->receiver->nic_rx()->gro(q);
    Juggler* juggler = dynamic_cast<Juggler*>(engine);
    if (juggler == nullptr) {
      if (auto* auditor = dynamic_cast<JugglerAuditor*>(engine)) {
        juggler = auditor->inner();
      }
    }
    if (juggler != nullptr) {
      PublishJugglerStats(juggler->juggler_stats(), "receiver", m);
    }
  }
  if (t->fault != nullptr) {
    PublishFaultStats(t->fault->stats(), t->fault->name(), m);
  }
  if (t->reorder != nullptr) {
    PublishReorderStats(*t->reorder, "netfpga", m);
  }
  if (t->fwd_link != nullptr) {
    PublishLinkStats(t->fwd_link->stats(), t->fwd_link->name(), m);
  }
  if (t->rev_link != nullptr) {
    PublishLinkStats(t->rev_link->stats(), t->rev_link->name(), m);
  }
  PublishTcpStats(pair->a_to_b->sender_stats(), pair->b_to_a->receiver_stats(), "a_to_b", m);
  PublishTcpStats(pair->b_to_a->sender_stats(), pair->a_to_b->receiver_stats(), "b_to_a", m);
  if (flapper != nullptr) {
    m->AddCounter("net.flaps", "", flapper->flaps_started());
  }
  if (app != nullptr) {
    app->PublishMetrics(m);
  }
}

// Result assembly + digest. Exactly one of `integrity` (raw bulk transfer)
// and `app` (application workload) is non-null; for app runs the completion
// oracle is "no request was left hanging" and the auditor's FinalCheck
// (inside AppHarness::Finish) stands in for the byte total.
void FinishRun(const ChaosOptions& opt, const NetFpgaTestbed* t, EndpointPair* pair,
               LinkFlapper* flapper, StreamIntegrityChecker* integrity, AppHarness* app,
               OverloadDriver* ovl, OverloadAuditor* ovl_audit, AuditLog* log, StackKind stack,
               TimeNs finish_time, ChaosEngineResult* r) {
  r->bytes_delivered = pair->b_to_a->bytes_delivered();
  r->finish_time = finish_time;
  if (app != nullptr) {
    app->Finish();
    r->app = app->totals();
    r->completed = r->app.forced_terminal == 0;
    if (!r->completed) {
      log->Violation(r->engine, "requests hung at run end: " +
                                    std::to_string(r->app.forced_terminal) + " of " +
                                    std::to_string(r->app.issued) + " issued");
    }
  } else {
    r->completed = r->bytes_delivered == opt.transfer_bytes;
    integrity->FinalCheck();
    if (!r->completed) {
      log->Violation(r->engine, "transfer incomplete: " + std::to_string(r->bytes_delivered) +
                                    " of " + std::to_string(opt.transfer_bytes) + " bytes");
    }
    // Chunk-independent stream identity: equal across receive drivers for
    // the same (seed, options). NOT mixed into the run digest.
    r->stream_digest = integrity->stream_digest();
  }
  // Overload finalization before the log is read: FinalCheck's violations
  // (conservation, recovery, drained tables) must count and digest.
  if (ovl_audit != nullptr) {
    ovl_audit->FinalCheck(finish_time, r->bytes_delivered, r->completed, ovl->stats());
    r->overload = ovl->stats();
    r->overload_probes = ovl_audit->probes();
    r->overload_peak_pool = ovl_audit->peak_outstanding();
    r->overload_pool_exhausted = ovl_audit->pool_exhausted_delta();
    r->overload_ring_drops = t->receiver->nic_rx()->stats().ring_drops;
  }
  r->violations = log->violations();
  r->violation_messages = log->messages();
  if (t->fault != nullptr) {
    r->faults = t->fault->stats();
  }
  if (flapper != nullptr) {
    r->flaps = flapper->flaps_started();
  }
  r->checksum_drops = t->receiver->nic_rx()->stats().checksum_drops;
  if (stack == StackKind::kJuggler && opt.audit) {
    for (size_t q = 0; q < t->receiver->nic_rx()->num_queues(); ++q) {
      if (auto* auditor = dynamic_cast<JugglerAuditor*>(t->receiver->nic_rx()->gro(q))) {
        r->audits += auditor->audits();
      }
    }
  }

  Digest d;
  d.Mix(r->bytes_delivered);
  d.Mix(static_cast<uint64_t>(r->finish_time));
  d.Mix(r->violations);
  d.Mix(r->checksum_drops);
  d.Mix(r->faults.packets_in);
  d.Mix(r->faults.drops);
  d.Mix(r->faults.duplicates);
  d.Mix(r->faults.corruptions);
  d.Mix(r->faults.truncations);
  d.Mix(r->faults.delayed);
  d.Mix(r->flaps);
  const GroStats gro = t->receiver->nic_rx()->TotalGroStats();
  d.Mix(gro.packets_in);
  d.Mix(gro.segments_out);
  d.Mix(gro.ooo_packets);
  const TcpSenderStats& snd = pair->a_to_b->sender_stats();
  d.Mix(snd.fast_retransmits);
  d.Mix(snd.rtos);
  d.Mix(snd.retransmitted_bytes);
  // App counters join the digest only for app runs, so every historical
  // raw-transfer digest stays bit-identical.
  if (app != nullptr) {
    d.Mix(r->app.issued);
    d.Mix(r->app.ok);
    d.Mix(r->app.timeouts);
    d.Mix(r->app.aborted);
    d.Mix(r->app.attempts);
    d.Mix(r->app.retries);
    d.Mix(r->app.duplicate_responses);
    d.Mix(r->app.executions);
    d.Mix(r->app.duplicates_suppressed);
    d.Mix(r->app.forced_terminal);
    d.Mix(app->frames_delivered());
  }
  // Overload counters join the digest only for overload runs (same gating
  // pattern as the app counters): every pre-overload digest stays
  // bit-identical. Raw pool lifetime counters stay OUT — the thread-local
  // pool accumulates them across in-process runs; only deltas digest.
  if (ovl_audit != nullptr) {
    d.Mix(r->overload.windows_started);
    d.Mix(r->overload.windows_ended);
    d.Mix(r->overload.bursts);
    d.Mix(r->overload.injected_packets);
    d.Mix(r->overload.inject_alloc_drops);
    d.Mix(r->overload.churn_tuples);
    d.Mix(r->overload.brownouts);
    d.Mix(r->overload.cap_restores);
    d.Mix(r->overload_probes);
    d.Mix(r->overload_peak_pool);
    d.Mix(r->overload_pool_exhausted);
    d.Mix(r->overload_ring_drops);
    d.Mix(r->faults.dup_pool_exhausted);
    d.Mix(t->receiver->stray_segments());
    d.Mix(t->sender->nic_tx()->stats().pool_exhausted_drops);
    d.Mix(t->receiver->nic_tx()->stats().pool_exhausted_drops);
  }
  r->digest = d.h;

  // Observability snapshot last, strictly after the digest: metrics must
  // never enter it.
  r->obs.metrics_enabled = opt.obs.metrics;
  r->obs.trace_enabled = opt.obs.trace;
  if (opt.obs.metrics) {
    PublishChaosMetrics(t, pair, flapper, stack, app, &r->obs.metrics);
    if (ovl != nullptr) {
      PublishOverloadStats(ovl->stats(), r->engine, &r->obs.metrics);
      ovl_audit->Publish(&r->obs.metrics);
    }
  }
}

}  // namespace

// Satellite of the overload family: a run that applies overload pressure
// against links with no queue bound would hide every queue-growth pathology
// inside an infinitely elastic buffer — flag it as a setup bug.
void CheckLinksBounded(std::initializer_list<const Link*> links, const std::string& engine,
                       AuditLog* log) {
  for (const Link* link : links) {
    if (link != nullptr && link->queue_limit_bytes() <= 0) {
      log->Violation(engine + "/overload", "link " + link->name() +
                                               " has no queue bound while overload faults "
                                               "are active");
    }
  }
}

ChaosEngineResult RunChaosEngine(const ChaosOptions& opt, bool use_juggler) {
  return RunChaosEngineStack(opt, use_juggler ? StackKind::kJuggler : StackKind::kVanilla);
}

ChaosEngineResult RunChaosEngineStack(const ChaosOptions& opt, StackKind stack) {
  ChaosEngineResult r;
  r.engine = EngineName(opt, stack);

  // One recorder (shard 0) covers everything.
  std::unique_ptr<FlightRecorder> recorder;
  if (opt.obs.trace) {
    recorder = std::make_unique<FlightRecorder>(0, opt.obs.trace_capacity);
  }

  SimWorld world;
  AuditLog log;
  NetFpgaOptions nopt = ChaosTestbedOptions(opt, stack, &log, recorder.get());

  // Held in an optional so overload runs can tear the fabric down before
  // measuring leaked packets.
  std::optional<NetFpgaTestbed> t_opt(BuildNetFpga(&world, nopt));
  NetFpgaTestbed& t = *t_opt;
  if (t.fault != nullptr) {
    t.fault->set_recorder(recorder.get());
  }

  std::unique_ptr<LinkFlapper> flapper = MaybeStartFlapper(opt, &world.loop, t.fwd_link);

  std::unique_ptr<OverloadDriver> ovl;
  std::unique_ptr<OverloadAuditor> ovl_audit;
  if (opt.overload.enabled()) {
    CheckLinksBounded({t.fwd_link, t.rev_link}, r.engine, &log);
    // The ambient thread-local pool serves the whole world; the driver's
    // Teardown() must restore its capacity — it outlives the run.
    OverloadWiring w = MakeOverloadWiring(opt, &world, t.sender, t.receiver, t.fault);
    ovl = std::make_unique<OverloadDriver>(opt.overload.windows, w);
    ovl->Start();
    ovl_audit =
        std::make_unique<OverloadAuditor>(r.engine + "/overload", w, opt.overload.windows, &log);
  }

  std::unique_ptr<StreamIntegrityChecker> integrity;
  std::unique_ptr<AppHarness> app;
  EndpointPair pair;
  if (opt.app.enabled()) {
    AppHarnessWiring wiring;
    wiring.a = t.sender;
    wiring.b = t.receiver;
    wiring.a_loop = &world.loop;
    wiring.b_loop = &world.loop;
    wiring.a_rec = recorder.get();
    wiring.b_rec = recorder.get();
    wiring.log = &log;
    wiring.name = r.engine;
    app = std::make_unique<AppHarness>(opt.app, wiring, opt.seed * 1000003ULL + 7);
    pair = app->primary();
    app->Start();
    while (world.loop.now() < opt.time_limit && !app->Done()) {
      world.loop.RunUntil(world.loop.now() + Ms(10));
      if (ovl_audit != nullptr) {
        ovl_audit->Probe(world.loop.now(), pair.b_to_a->bytes_delivered());
      }
    }
  } else {
    pair = ConnectHosts(t.sender, t.receiver, 1000, 2000);
    integrity = std::make_unique<StreamIntegrityChecker>(r.engine + "/stream", &log);
    integrity->Attach(pair.b_to_a);
    integrity->set_expected_bytes(opt.transfer_bytes);
    pair.a_to_b->Send(opt.transfer_bytes);
    while (world.loop.now() < opt.time_limit &&
           pair.b_to_a->bytes_delivered() < opt.transfer_bytes) {
      world.loop.RunUntil(world.loop.now() + Ms(10));
      if (ovl_audit != nullptr) {
        ovl_audit->Probe(world.loop.now(), pair.b_to_a->bytes_delivered());
      }
    }
  }
  // Let the tail drain (final ACKs, pending GRO flushes, late duplicates).
  // If the workload finished while overload windows were still open, keep
  // running until the last window closes and its flush timers fire — the
  // auditor's quiescence invariants only hold after pressure ends.
  TimeNs drain_until = world.loop.now() + Ms(5);
  if (ovl != nullptr) {
    drain_until = std::max(drain_until, ovl->pressure_end() + Ms(5));
  }
  world.loop.RunUntil(drain_until);

  FinishRun(opt, &t, &pair, flapper.get(), integrity.get(), app.get(), ovl.get(),
            ovl_audit.get(), &log, stack, world.loop.now(), &r);
  if (opt.obs.trace) {
    r.obs.trace_dropped = recorder->dropped();
    r.obs.events = MergeTraces({recorder.get()});
  }
  // The no-leak proof: un-cap the long-lived thread-local pool, destroy
  // everything that can hold a packet (fabric teardown returns link, ring
  // and GRO-held storage; the loop shutdown frees timer-riding packets),
  // then any outstanding remainder is storage the stack lost track of.
  if (ovl != nullptr) {
    ovl->Teardown();
    app.reset();
    integrity.reset();
    flapper.reset();
    pair = EndpointPair{};
    t_opt.reset();
    world.loop.Shutdown();
    r.overload_pool_leaked = static_cast<int64_t>(ovl_audit->MeasureLeakedPackets());
  }
  return r;
}

namespace {

const char* TraceFlushReasonName(int reason) {
  if (reason < 0 || reason >= static_cast<int>(FlushReason::kReasonCount)) {
    return "unknown";
  }
  return FlushReasonName(static_cast<FlushReason>(reason));
}

const char* TracePhaseName(int phase) {
  if (phase == kFlowPhaseNone) {
    return "none";
  }
  if (phase < 0 || phase >= kFlowPhaseCount) {
    return "unknown";
  }
  return FlowPhaseName(static_cast<FlowPhase>(phase));
}

}  // namespace

TraceNamer ChaosTraceNamer() {
  TraceNamer namer;
  namer.flush_reason = TraceFlushReasonName;
  namer.phase = TracePhaseName;
  return namer;
}

const char* FaultFamilyName(FaultFamily family) {
  switch (family) {
    case FaultFamily::kDropBurst:
      return "drop-burst";
    case FaultFamily::kDuplicate:
      return "duplicate";
    case FaultFamily::kCorrupt:
      return "corrupt";
    case FaultFamily::kDelaySpike:
      return "delay-spike";
    case FaultFamily::kLinkFlap:
      return "link-flap";
    case FaultFamily::kMixed:
      return "mixed";
  }
  return "?";
}

bool ParseFaultFamily(const char* name, FaultFamily* out) {
  static constexpr FaultFamily kParseable[] = {
      FaultFamily::kDropBurst, FaultFamily::kDuplicate, FaultFamily::kCorrupt,
      FaultFamily::kDelaySpike, FaultFamily::kLinkFlap, FaultFamily::kMixed,
  };
  for (FaultFamily f : kParseable) {
    if (std::strcmp(name, FaultFamilyName(f)) == 0) {
      *out = f;
      return true;
    }
  }
  return false;
}

FaultTimeline MakeChaosTimeline(FaultFamily family, uint64_t seed, TimeNs horizon,
                                int num_windows) {
  JUG_CHECK(num_windows >= 1 && horizon > 0);
  Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL +
          static_cast<uint64_t>(family));
  FaultTimeline timeline;
  if (family == FaultFamily::kLinkFlap) {
    return timeline;  // link flaps are scheduled on the Link, not per packet
  }
  // Windows tile [horizon/32, horizon] with jittered boundaries and ~20%
  // gaps between them: connection establishment stays clean, faults flare
  // and subside across the bulk of the transfer (whose duration is
  // congestion-limited and engine-dependent, hence the wide span), and
  // everything after `horizon` is fault-free recovery time.
  const TimeNs lo = horizon / 32;
  const TimeNs span = (horizon - lo) / num_windows;
  for (int i = 0; i < num_windows; ++i) {
    const TimeNs wlo = lo + span * i;
    const TimeNs start = wlo + rng.NextBounded(static_cast<uint64_t>(span / 8));
    const TimeNs end = wlo + span - span / 8 - rng.NextBounded(static_cast<uint64_t>(span / 8));
    FaultFamily f = family;
    if (family == FaultFamily::kMixed) {
      f = static_cast<FaultFamily>(rng.NextBounded(4));  // packet families only
    }
    FaultProfile p;
    switch (f) {
      case FaultFamily::kDropBurst:
        p = DropBurstProfile(&rng);
        break;
      case FaultFamily::kDuplicate:
        p = DuplicateProfile(&rng);
        break;
      case FaultFamily::kCorrupt:
        p = CorruptProfile(&rng);
        break;
      case FaultFamily::kDelaySpike:
        p = DelaySpikeProfile(&rng);
        break;
      default:
        break;
    }
    timeline.Add(start, end, p);
  }
  return timeline;
}

FaultTimeline DeriveChaosFaults(const ChaosOptions& options) {
  if (options.family == FaultFamily::kLinkFlap) {
    return FaultTimeline();  // flaps are scheduled on the Link, not per packet
  }
  // 12x the line-rate duration: the transfer is congestion-limited (more so
  // for the baseline engine under reordering), so faults must stay active
  // across the real, much longer, delivery timeline.
  return MakeChaosTimeline(options.family, options.seed,
                           /*horizon=*/NominalTransferTime(options) * 12, options.num_windows);
}

std::vector<FlapWindow> DeriveChaosFlaps(const ChaosOptions& options) {
  if (options.family != FaultFamily::kLinkFlap && options.family != FaultFamily::kMixed) {
    return {};
  }
  // Blackhole windows on the forward path, short relative to TCP's max RTO
  // (200ms) so the sender always recovers.
  Rng flap_rng(options.seed * 40503 + 271);
  const bool blackhole = options.family == FaultFamily::kLinkFlap || flap_rng.NextBool(0.5);
  return LinkFlapper::MakeRandomWindows(
      &flap_rng, /*horizon=*/NominalTransferTime(options),
      /*count=*/options.family == FaultFamily::kLinkFlap ? 3 : 1,
      /*min_down=*/Ms(2), /*max_down=*/Ms(12), blackhole, options.link_rate_bps);
}

ChaosResult RunChaos(const ChaosOptions& options) {
  ChaosResult result;
  result.juggler = RunChaosEngine(options, /*use_juggler=*/true);
  result.baseline = RunChaosEngine(options, /*use_juggler=*/false);
  if (options.app.enabled()) {
    // App workloads put engine-dependent byte totals on the wire (retries
    // are timing dependent), so the raw byte comparison does not apply; the
    // per-engine auditor + hung-request oracles already ran.
    result.streams_match = true;
  } else {
    // The two engines must agree on the application byte stream. Totals
    // plus each run's own integrity check (contiguity, exactly-once) make
    // the comparison: identical totals of identical contiguous prefixes are
    // the identical stream. The stream digest folds the same facts plus any
    // delivery anomalies, so it must agree whenever the totals do.
    result.streams_match =
        result.juggler.bytes_delivered == result.baseline.bytes_delivered &&
        result.juggler.stream_digest == result.baseline.stream_digest;
  }
  result.ok = result.juggler.completed && result.baseline.completed &&
              result.juggler.violations == 0 && result.baseline.violations == 0 &&
              result.streams_match;
  return result;
}

const char* StackKindName(StackKind stack) {
  switch (stack) {
    case StackKind::kJuggler:
      return "juggler";
    case StackKind::kVanilla:
      return "vanilla";
    case StackKind::kPresto:
      return "presto";
  }
  return "?";
}

bool ParseStackKind(const char* name, StackKind* out) {
  static constexpr StackKind kParseable[] = {
      StackKind::kJuggler,
      StackKind::kVanilla,
      StackKind::kPresto,
  };
  for (StackKind s : kParseable) {
    if (std::strcmp(name, StackKindName(s)) == 0) {
      *out = s;
      return true;
    }
  }
  return false;
}

}  // namespace juggler

