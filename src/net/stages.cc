#include "src/net/stages.h"

#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace juggler {

ReorderStage::ReorderStage(EventLoop* loop, std::vector<TimeNs> lane_delays, uint64_t seed,
                           PacketSink* sink)
    : loop_(loop), lane_delays_(std::move(lane_delays)), rng_(seed), sink_(sink) {
  JUG_CHECK(!lane_delays_.empty());
  lane_last_out_.resize(lane_delays_.size(), 0);
}

void ReorderStage::Accept(PacketPtr packet) {
  ++packets_;
  const size_t lane = static_cast<size_t>(rng_.NextBounded(lane_delays_.size()));
  const TimeNs now = loop_->now();
  TimeNs out = now + lane_delays_[lane];
  if (out < lane_last_out_[lane]) {
    out = lane_last_out_[lane];  // lanes are FIFOs
  }
  lane_last_out_[lane] = out;
  displacement_.Record(max_out_ > out ? static_cast<uint64_t>(max_out_ - out) : 0);
  if (out > max_out_) {
    max_out_ = out;
  }
  PacketSink* sink = sink_;
  loop_->ScheduleAt(out,
                    [sink, p = std::move(packet)]() mutable { sink->Accept(std::move(p)); });
}

void PublishReorderStats(const ReorderStage& stage, const std::string& label,
                         MetricsRegistry* registry) {
  registry->AddCounter("net.reorder.packets", label, stage.packets_through());
  registry->RecordHistogram("net.reorder.displacement_ns", label,
                            stage.displacement_histogram());
}

}  // namespace juggler
