// Spans for the traced run, recorded from outside the simulator at two
// public seams:
//
//   TimedGro  — a GroEngine decorator installed through
//               HostConfig::gro_factory (the JugglerAuditor pattern). It
//               times Receive/ReceiveBatch, PollComplete and OnTimer. The
//               RX queue buffers the engine's deliveries in its pending list
//               and hands them up only after the call returns, so each span
//               is the GRO layer's self time.
//   TimedSink — a PacketSink interposed with Switch::AddRoute in front of a
//               ToR->host port, timing Link::Accept (queueing, RED and the
//               serializer kick-off; delivery happens later, from a timer).
//
// Both forward every call unchanged, so a traced batch simulates exactly
// what an untraced one does; the benchmark checks that their digests match.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/gro/gro_engine.h"
#include "src/net/packet_sink.h"

namespace perfbench {

// Wall-clock totals of one traced batch, in ns.
struct Spans {
  uint64_t gro_receive_ns = 0;
  uint64_t gro_poll_ns = 0;
  uint64_t gro_poll_calls = 0;
  uint64_t gro_timer_ns = 0;
  uint64_t gro_timer_calls = 0;
  uint64_t net_ns = 0;
  uint64_t net_pkts = 0;

  uint64_t gro_ns() const { return gro_receive_ns + gro_poll_ns + gro_timer_ns; }
  uint64_t total_ns() const { return gro_ns() + net_ns; }

  void Add(const Spans& other) {
    gro_receive_ns += other.gro_receive_ns;
    gro_poll_ns += other.gro_poll_ns;
    gro_poll_calls += other.gro_poll_calls;
    gro_timer_ns += other.gro_timer_ns;
    gro_timer_calls += other.gro_timer_calls;
    net_ns += other.net_ns;
    net_pkts += other.net_pkts;
  }
};

inline uint64_t WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class TimedGro : public juggler::GroEngine {
 public:
  TimedGro(std::unique_ptr<juggler::GroEngine> inner, Spans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void set_context(Context ctx) override {
    ctx_ = ctx;
    inner_->set_context(ctx);
  }

  juggler::TimeNs Receive(juggler::PacketPtr packet) override {
    const uint64_t t0 = WallNs();
    const juggler::TimeNs cost = inner_->Receive(std::move(packet));
    spans_->gro_receive_ns += WallNs() - t0;
    return cost;
  }

  juggler::TimeNs ReceiveBatch(juggler::PacketPtr* packets, size_t count) override {
    const uint64_t t0 = WallNs();
    const juggler::TimeNs cost = inner_->ReceiveBatch(packets, count);
    spans_->gro_receive_ns += WallNs() - t0;
    return cost;
  }

  juggler::TimeNs PollComplete() override {
    const uint64_t t0 = WallNs();
    const juggler::TimeNs cost = inner_->PollComplete();
    spans_->gro_poll_ns += WallNs() - t0;
    ++spans_->gro_poll_calls;
    return cost;
  }

  juggler::TimeNs OnTimer() override {
    const uint64_t t0 = WallNs();
    const juggler::TimeNs cost = inner_->OnTimer();
    spans_->gro_timer_ns += WallNs() - t0;
    ++spans_->gro_timer_calls;
    return cost;
  }

  juggler::TimeNs ApplyFlowCapPressure(size_t max_flows) override {
    return inner_->ApplyFlowCapPressure(max_flows);
  }

  std::string name() const override { return inner_->name(); }

  // Counters live in the inner engine; the decorator's own stats_ stay zero.
  const juggler::GroEngine& inner() const { return *inner_; }

 private:
  std::unique_ptr<juggler::GroEngine> inner_;
  Spans* spans_;
};

class TimedSink : public juggler::PacketSink {
 public:
  TimedSink(juggler::PacketSink* inner, Spans* spans) : inner_(inner), spans_(spans) {}

  void Accept(juggler::PacketPtr packet) override {
    const uint64_t t0 = WallNs();
    inner_->Accept(std::move(packet));
    spans_->net_ns += WallNs() - t0;
    ++spans_->net_pkts;
  }

 private:
  juggler::PacketSink* inner_;
  Spans* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
