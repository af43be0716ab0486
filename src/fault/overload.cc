#include "src/fault/overload.h"

#include <algorithm>
#include <utility>

#include "src/core/juggler.h"
#include "src/fault/juggler_auditor.h"
#include "src/util/logging.h"

namespace juggler {

const char* OverloadKindName(OverloadKind kind) {
  switch (kind) {
    case OverloadKind::kIncast:
      return "incast";
    case OverloadKind::kChurn:
      return "churn";
    case OverloadKind::kBrownout:
      return "brownout";
  }
  return "unknown";
}

bool ParseOverloadKind(const std::string& name, OverloadKind* out) {
  for (OverloadKind kind :
       {OverloadKind::kIncast, OverloadKind::kChurn, OverloadKind::kBrownout}) {
    if (name == OverloadKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

OverloadDriver::OverloadDriver(std::vector<OverloadWindow> windows,
                               const OverloadWiring& wiring)
    : windows_(std::move(windows)), wiring_(wiring) {}

TimeNs OverloadDriver::pressure_end() const {
  TimeNs end = 0;
  for (const OverloadWindow& w : windows_) {
    end = std::max(end, w.end);
  }
  return end;
}

void OverloadDriver::Start() {
  JUG_CHECK(!started_);
  started_ = true;
  // Nominal caps for the whole run. The prior capacity is saved because the
  // chaos harness caps the long-lived thread-local pool, which must not stay
  // capped once this run is over.
  prior_capacity_ = wiring_.pool->capacity();
  if (wiring_.pool_capacity != 0) {
    wiring_.pool->set_capacity(wiring_.pool_capacity);
  }
  nominal_ring_ = wiring_.ring_capacity != 0 ? wiring_.ring_capacity
                                             : wiring_.receiver_nic->config().ring_capacity;
  if (wiring_.ring_capacity != 0) {
    wiring_.receiver_nic->set_ring_capacity(wiring_.ring_capacity);
  }
  for (size_t i = 0; i < windows_.size(); ++i) {
    const OverloadWindow& w = windows_[i];
    if (w.end <= w.start) {
      continue;
    }
    wiring_.loop->ScheduleAt(w.start, [this, i] { BeginWindow(i); });
    wiring_.loop->ScheduleAt(w.end, [this, i] { EndWindow(i); });
  }
}

void OverloadDriver::Teardown() {
  if (started_) {
    wiring_.pool->set_capacity(prior_capacity_);
  }
}

void OverloadDriver::BeginWindow(size_t index) {
  const OverloadWindow& w = windows_[index];
  ++stats_.windows_started;
  if (w.kind == OverloadKind::kBrownout) {
    ++stats_.brownouts;
    const uint32_t pct = std::clamp<uint32_t>(w.cap_pct, 1, 100);
    if (wiring_.pool_capacity != 0) {
      wiring_.pool->set_capacity(std::max<size_t>(1, wiring_.pool_capacity * pct / 100));
    }
    wiring_.receiver_nic->set_ring_capacity(std::max<size_t>(1, nominal_ring_ * pct / 100));
    if (wiring_.gro_flow_cap != 0) {
      wiring_.receiver_nic->ApplyGroFlowCap(
          std::max<size_t>(1, wiring_.gro_flow_cap * pct / 100));
    }
    return;
  }
  Burst(index, 0);
}

void OverloadDriver::EndWindow(size_t index) {
  const OverloadWindow& w = windows_[index];
  ++stats_.windows_ended;
  if (w.kind == OverloadKind::kBrownout) {
    ++stats_.cap_restores;
    if (wiring_.pool_capacity != 0) {
      wiring_.pool->set_capacity(wiring_.pool_capacity);
    }
    wiring_.receiver_nic->set_ring_capacity(nominal_ring_);
    if (wiring_.gro_flow_cap != 0) {
      wiring_.receiver_nic->ApplyGroFlowCap(0);  // 0 = engine nominal
    }
  }
}

void OverloadDriver::Burst(size_t index, uint64_t burst_index) {
  const OverloadWindow& w = windows_[index];
  if (wiring_.loop->now() >= w.end) {
    return;
  }
  ++stats_.bursts;
  for (uint32_t f = 0; f < w.flows; ++f) {
    FiveTuple tuple;
    Seq base_seq;
    if (w.kind == OverloadKind::kIncast) {
      // Stable tuples for the window: each burst continues the flow's byte
      // stream, so GRO sees sustained per-flow merging under ring pressure.
      tuple.src_ip = 0xAC100000u + static_cast<uint32_t>(index) * 0x10000u + f;
      tuple.src_port = static_cast<uint16_t>(40000 + index);
      base_seq = static_cast<Seq>((burst_index * w.packets_per_flow) * kMss);
    } else {
      // Churn: a never-before-seen tuple per (burst, f) — pure flow-creation
      // pressure on the gro_table.
      tuple.src_ip = 0xC0A80000u + next_churn_ip_++;
      tuple.src_port = 40001;
      base_seq = 0;
      ++stats_.churn_tuples;
    }
    tuple.dst_ip = wiring_.target_ip;
    tuple.dst_port = 9;  // discard: no local endpoint, segments land as strays
    for (uint32_t k = 0; k < w.packets_per_flow; ++k) {
      InjectOne(tuple, base_seq + static_cast<Seq>(k) * kMss);
    }
  }
  const TimeNs next = wiring_.loop->now() + w.burst_interval;
  if (next < w.end) {
    wiring_.loop->ScheduleAt(next, [this, index, burst_index] {
      Burst(index, burst_index + 1);
    });
  }
}

void OverloadDriver::InjectOne(const FiveTuple& tuple, Seq seq) {
  PacketPtr p = wiring_.factory->TryMake();
  if (p == nullptr) {
    // The storm is subject to the same cap it provokes: shed + count.
    ++stats_.inject_alloc_drops;
    return;
  }
  p->flow = tuple;
  p->seq = seq;
  p->payload_len = kMss;
  p->flags = kFlagAck;
  p->sent_time = wiring_.loop->now();
  ++stats_.injected_packets;
  wiring_.inject->Accept(std::move(p));
}

OverloadAuditor::OverloadAuditor(std::string name, const OverloadWiring& wiring,
                                 const std::vector<OverloadWindow>& windows, AuditLog* log)
    : name_(std::move(name)), wiring_(wiring), log_(log) {
  for (const OverloadWindow& w : windows) {
    pressure_end_ = std::max(pressure_end_, w.end);
  }
  // Baselines, not raw counters: the chaos harness audits the long-lived
  // thread-local pool, whose lifetime counters accumulate across runs.
  const PacketPool* pool = wiring_.pool;
  base_ = PoolBaseline{pool->acquired(), pool->released(), pool->exhausted()};
  if (wiring_.sender_tx != nullptr) {
    sender_tx_base_.exhausted = wiring_.sender_tx->pool_exhausted_drops;
  }
  if (wiring_.receiver_tx != nullptr) {
    receiver_tx_drops_base_ = wiring_.receiver_tx->pool_exhausted_drops;
  }
  if (wiring_.fault != nullptr) {
    fault_dup_drops_base_ = wiring_.fault->dup_pool_exhausted;
  }
}

int64_t OverloadAuditor::SignedOutstandingDelta() const {
  return static_cast<int64_t>(wiring_.pool->acquired() - base_.acquired) -
         static_cast<int64_t>(wiring_.pool->released() - base_.released);
}

uint64_t OverloadAuditor::OutstandingDelta() const {
  const int64_t live = SignedOutstandingDelta();
  return live > 0 ? static_cast<uint64_t>(live) : 0;
}

uint64_t OverloadAuditor::pool_exhausted_delta() const {
  return wiring_.pool->exhausted() - base_.exhausted;
}

void OverloadAuditor::Probe(TimeNs now, uint64_t bytes) {
  ++probes_;
  const int64_t outstanding = SignedOutstandingDelta();
  if (outstanding > 0 && static_cast<uint64_t>(outstanding) > peak_outstanding_) {
    peak_outstanding_ = static_cast<uint64_t>(outstanding);
  }
  // The hard cap: occupancy added by this run never exceeds the nominal
  // capacity (brown-outs shrink below nominal, so nominal bounds both).
  if (wiring_.pool_capacity != 0 &&
      outstanding > static_cast<int64_t>(wiring_.pool_capacity)) {
    log_->Violation(name_, "pool occupancy " + std::to_string(outstanding) +
                               " exceeds capacity " + std::to_string(wiring_.pool_capacity));
  }
  // Forward progress / no deadlock: a run that executes no events and moves
  // no bytes across several consecutive 10ms probe windows while the clock
  // still advances is wedged, pressure or not.
  const uint64_t events = wiring_.loop != nullptr ? wiring_.loop->executed_events() : 0;
  if (last_probe_now_ >= 0 && now > last_probe_now_) {
    if (events == last_events_ && bytes == last_bytes_) {
      ++stall_probes_;
      if (stall_probes_ == 5) {
        log_->Violation(name_, "no forward progress (no events, no bytes) across " +
                                   std::to_string(stall_probes_) + " probe windows at t=" +
                                   std::to_string(now) + "ns");
      }
    } else {
      stall_probes_ = 0;
    }
  }
  last_probe_now_ = now;
  last_events_ = events;
  if (!recovery_started_ && now >= pressure_end_) {
    recovery_started_ = true;
    bytes_at_recovery_start_ = last_bytes_;
  }
  if (recovery_started_ && bytes > bytes_at_recovery_start_) {
    recovery_proven_ = true;
  }
  last_bytes_ = bytes;
}

void OverloadAuditor::FinalCheck(TimeNs now, uint64_t bytes, bool transfer_complete,
                                 const OverloadStats& driver) {
  final_outstanding_ = OutstandingDelta();
  final_exhausted_ = pool_exhausted_delta();

  // Every refused allocation must surface in exactly one published drop
  // counter. The TryAcquire call sites are closed: NIC transmit (both
  // hosts), fault duplication, and the overload injector.
  uint64_t visible = driver.inject_alloc_drops;
  if (wiring_.sender_tx != nullptr) {
    visible += wiring_.sender_tx->pool_exhausted_drops - sender_tx_base_.exhausted;
  }
  if (wiring_.receiver_tx != nullptr) {
    visible += wiring_.receiver_tx->pool_exhausted_drops - receiver_tx_drops_base_;
  }
  if (wiring_.fault != nullptr) {
    visible += wiring_.fault->dup_pool_exhausted - fault_dup_drops_base_;
  }
  if (visible != final_exhausted_) {
    log_->Violation(name_, "pool refusals not fully metrics-visible: " +
                               std::to_string(final_exhausted_) + " refused vs " +
                               std::to_string(visible) + " counted drops");
  }

  // Quiescence checks only make sense once the last overload window has
  // closed: mid-storm, pool occupancy and gro_table buffering are legitimate
  // transient state with timers still armed. The harness drains past
  // pressure_end() before calling FinalCheck, so this guard is defense in
  // depth for callers that finish early.
  const bool pressure_over = now >= pressure_end_;

  // Recovery contract, part 1: once the workload is done, occupancy is back
  // under the watermark (packets still riding late timers are allowed; a
  // population stuck above the watermark is not).
  if (pressure_over && transfer_complete && final_outstanding_ > kRecoveryWatermark) {
    log_->Violation(name_, "pool occupancy " + std::to_string(final_outstanding_) +
                               " still above recovery watermark " +
                               std::to_string(kRecoveryWatermark) + " after completion");
  }

  // Recovery contract, part 2: pressure ended and the transfer either
  // finished or at least delivered bytes afterwards — throughput restored.
  if (pressure_end_ > 0 && now >= pressure_end_ + Ms(5)) {
    const bool recovered = transfer_complete || recovery_proven_ || bytes > bytes_at_recovery_start_;
    if (!recovered) {
      log_->Violation(name_, "no bytes delivered after pressure ended at t=" +
                                 std::to_string(pressure_end_) + "ns");
    }
  }

  // Recovery contract, part 3: Juggler's gro_table holds no buffered bytes
  // once the drain has let every inseq/ofo timeout fire (held bytes after
  // that would be stranded forever). Baseline engines flush at poll end by
  // construction; Presto may legitimately hold runs (its documented gap).
  if (pressure_over && wiring_.receiver_nic != nullptr) {
    for (size_t q = 0; q < wiring_.receiver_nic->num_queues(); ++q) {
      GroEngine* engine = wiring_.receiver_nic->gro(q);
      Juggler* core = dynamic_cast<Juggler*>(engine);
      if (core == nullptr) {
        if (auto* audited = dynamic_cast<JugglerAuditor*>(engine)) {
          core = audited->inner();
        }
      }
      if (core == nullptr) {
        continue;
      }
      const Juggler::AuditView view = core->Audit();
      uint64_t held = 0;
      for (const auto& flow : view.flows) {
        held += flow.buffered_bytes;
      }
      if (held != 0) {
        log_->Violation(name_, "gro_table queue " + std::to_string(q) + " still holds " +
                                   std::to_string(held) + " buffered bytes after drain");
      }
    }
  }
}

uint64_t OverloadAuditor::MeasureLeakedPackets() const { return OutstandingDelta(); }

void OverloadAuditor::Publish(MetricsRegistry* registry) const {
  registry->MaxGauge("overload.peak_pool_outstanding", name_, peak_outstanding_);
  registry->SetGauge("overload.final_pool_outstanding", name_, final_outstanding_);
  registry->AddCounter("overload.pool_exhausted", name_, final_exhausted_);
  registry->AddCounter("overload.probes", name_, probes_);
}

void PublishOverloadStats(const OverloadStats& stats, const std::string& label,
                          MetricsRegistry* registry) {
  registry->AddCounter("overload.windows_started", label, stats.windows_started);
  registry->AddCounter("overload.windows_ended", label, stats.windows_ended);
  registry->AddCounter("overload.bursts", label, stats.bursts);
  registry->AddCounter("overload.injected_packets", label, stats.injected_packets);
  registry->AddCounter("overload.inject_alloc_drops", label, stats.inject_alloc_drops);
  registry->AddCounter("overload.churn_tuples", label, stats.churn_tuples);
  registry->AddCounter("overload.brownouts", label, stats.brownouts);
  registry->AddCounter("overload.cap_restores", label, stats.cap_restores);
}

}  // namespace juggler
