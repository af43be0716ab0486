// Inline pipeline stages: the NetFPGA-style reorder stage and a random-drop
// stage, composable in front of any sink.

#ifndef JUGGLER_SRC_NET_STAGES_H_
#define JUGGLER_SRC_NET_STAGES_H_

#include <vector>

#include "src/fault/fault_stage.h"
#include "src/net/packet_sink.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace juggler {

// Models the paper's NetFPGA-10G testbed switch (Figure 11): each inbound
// packet is hashed uniformly at random to one of N internal lanes; lane i
// adds a fixed delay. Order is preserved *within* a lane (each lane is a
// FIFO), so the reordering a receiver sees is exactly the delay difference
// across lanes — the paper's "Xµs reordering".
class ReorderStage : public PacketSink {
 public:
  ReorderStage(EventLoop* loop, std::vector<TimeNs> lane_delays, uint64_t seed, PacketSink* sink);

  void Accept(PacketPtr packet) override;

  uint64_t packets_through() const { return packets_; }

  // Displacement a packet suffers relative to the latest egress time already
  // scheduled: 0 for a packet leaving last (in order), else how far (ns) it
  // jumps ahead of a predecessor — the in-path reordering signal of the
  // data-plane detection literature. Always-on: one compare + histogram add.
  const Log2Histogram& displacement_histogram() const { return displacement_; }

 private:
  EventLoop* loop_;
  std::vector<TimeNs> lane_delays_;
  std::vector<TimeNs> lane_last_out_;  // FIFO guarantee per lane
  Rng rng_;
  PacketSink* sink_;
  uint64_t packets_ = 0;
  Log2Histogram displacement_;
  TimeNs max_out_ = 0;  // latest egress time scheduled so far
};

// Snapshot a ReorderStage's displacement histogram into `registry`.
void PublishReorderStats(const ReorderStage& stage, const std::string& label,
                         MetricsRegistry* registry);

// Drops each packet independently with probability `drop_prob` (the 0.1%
// loss injection of Figure 14). Folded into the fault layer's FaultStage: a
// clockless stage with a uniform-drop timeline draws the same single
// Bernoulli trial per packet the standalone implementation did, so existing
// seeds reproduce the same drop pattern.
class DropStage : public FaultStage {
 public:
  DropStage(double drop_prob, uint64_t seed, PacketSink* sink)
      : FaultStage(/*loop=*/nullptr, "drop", FaultTimeline::UniformDrop(drop_prob), seed,
                   sink) {}
};

}  // namespace juggler

#endif  // JUGGLER_SRC_NET_STAGES_H_
