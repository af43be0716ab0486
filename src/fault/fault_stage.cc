#include "src/fault/fault_stage.h"

#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace juggler {

FaultStage::FaultStage(EventLoop* loop, std::string name, FaultTimeline timeline, uint64_t seed,
                       PacketSink* sink)
    : loop_(loop), name_(std::move(name)), timeline_(std::move(timeline)), rng_(seed),
      sink_(sink) {
  JUG_CHECK(sink_ != nullptr);
  JUG_CHECK(loop_ != nullptr || !timeline_.needs_clock());
  for (const auto& w : timeline_.windows()) {
    JUG_CHECK(w.profile.burst_len_min >= 1);
    JUG_CHECK(w.profile.burst_len_max >= w.profile.burst_len_min);
    JUG_CHECK(w.profile.delay_max >= w.profile.delay_min && w.profile.delay_min >= 0);
  }
}

void FaultStage::Accept(PacketPtr packet) {
  ++stats_.packets_in;

  // An in-progress drop burst swallows packets regardless of window
  // boundaries — a burst models one physical event (buffer overrun, route
  // flap) that does not stop because a schedule window rolled over.
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    ++stats_.drops;
    ++stats_.burst_drops;
    Trace(kFaultCodeBurstDrop, *packet);
    return;
  }

  const TimeNs now = loop_ != nullptr ? loop_->now() : 0;
  const FaultProfile* p = timeline_.ActiveAt(now);
  if (p == nullptr || !p->any()) {
    ++stats_.passed;
    sink_->Accept(std::move(packet));
    return;
  }

  // Fault decisions in a fixed order per packet (the determinism contract):
  // burst start, independent drop, corruption, truncation, duplication,
  // delay spike.
  if (p->burst_prob > 0 && rng_.NextBool(p->burst_prob)) {
    ++stats_.bursts_started;
    burst_remaining_ =
        static_cast<int>(rng_.NextInRange(p->burst_len_min, p->burst_len_max)) - 1;
    ++stats_.drops;
    ++stats_.burst_drops;
    Trace(kFaultCodeBurstDrop, *packet);
    return;
  }
  if (p->drop_prob > 0 && rng_.NextBool(p->drop_prob)) {
    ++stats_.drops;
    Trace(kFaultCodeDrop, *packet);
    return;
  }
  if (p->corrupt_prob > 0 && rng_.NextBool(p->corrupt_prob)) {
    // Flipped payload/header bits: the frame still travels (and occupies
    // downstream elements) but fails NIC checksum validation on arrival.
    packet->corrupted = true;
    ++stats_.corruptions;
    Trace(kFaultCodeCorrupt, *packet);
  }
  if (!packet->corrupted && packet->payload_len > 1 && p->truncate_prob > 0 &&
      rng_.NextBool(p->truncate_prob)) {
    // A cut-short frame: shorter on the wire from here on, and its FCS can
    // no longer match, so the NIC discards it too.
    packet->payload_len =
        1 + static_cast<uint32_t>(rng_.NextBounded(packet->payload_len - 1));
    packet->corrupted = true;
    ++stats_.truncations;
    Trace(kFaultCodeTruncate, *packet);
  }
  if (p->dup_prob > 0 && rng_.NextBool(p->dup_prob)) {
    // Identical copy, back to back — same id, same metadata, as a replayed
    // frame would be. Delivered after the original. Under pool pressure the
    // duplicate is shed (counted) and the original still forwards.
    PacketPtr dup = TryClonePacket(*packet);
    if (dup != nullptr) {
      ++stats_.duplicates;
      Trace(kFaultCodeDuplicate, *packet);
      sink_->Accept(std::move(packet));
      sink_->Accept(std::move(dup));
    } else {
      ++stats_.dup_pool_exhausted;
      sink_->Accept(std::move(packet));
    }
    return;
  }
  if (p->delay_prob > 0 && rng_.NextBool(p->delay_prob)) {
    const TimeNs spike = rng_.NextInRange(p->delay_min, p->delay_max);
    ++stats_.delayed;
    Trace(kFaultCodeDelay, *packet);
    PacketSink* sink = sink_;
    loop_->Schedule(spike,
                    [sink, p = std::move(packet)]() mutable { sink->Accept(std::move(p)); });
    return;
  }
  ++stats_.passed;
  sink_->Accept(std::move(packet));
}

void PublishFaultStats(const FaultStats& stats, const std::string& label,
                       MetricsRegistry* registry) {
  registry->AddCounter("fault.packets_in", label, stats.packets_in);
  registry->AddCounter("fault.drops", label, stats.drops);
  registry->AddCounter("fault.burst_drops", label, stats.burst_drops);
  registry->AddCounter("fault.bursts_started", label, stats.bursts_started);
  registry->AddCounter("fault.duplicates", label, stats.duplicates);
  registry->AddCounter("fault.dup_pool_exhausted", label, stats.dup_pool_exhausted);
  registry->AddCounter("fault.corruptions", label, stats.corruptions);
  registry->AddCounter("fault.truncations", label, stats.truncations);
  registry->AddCounter("fault.delayed", label, stats.delayed);
  registry->AddCounter("fault.passed", label, stats.passed);
}

}  // namespace juggler
