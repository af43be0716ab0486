// Framed messaging over one direction of a simulated TCP connection.
//
// The TCP substrate carries (sequence, length) accounting, not payload
// bytes, so application protocols cannot put headers on the wire. A
// FrameChannel gives them the next best thing: the sender records each
// frame's header out of band, keyed by the frame's end offset in the byte
// stream, and the receiving side pops headers in order as TCP's in-order
// delivery point sweeps past them. Because TCP delivers every byte exactly
// once and in order, the pop sequence at the receiver is exactly the send
// sequence — the ledger behaves like a lossless FIFO header channel riding
// the (possibly retransmitted, reordered, faulted) wire.
//
// Thread safety: the ledger is mutex protected. Determinism is unaffected —
// pops are driven by the delivery total, which is causally ordered by the
// TCP stream itself.

#ifndef JUGGLER_SRC_WORKLOAD_FRAME_CHANNEL_H_
#define JUGGLER_SRC_WORKLOAD_FRAME_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "src/tcp/tcp_endpoint.h"

namespace juggler {

// What a frame means to the application protocols in app_resilience.h.
enum class FrameKind : uint8_t {
  kRequest = 0,   // RPC request (client -> server)
  kResponse = 1,  // RPC response (server -> client)
  kChunk = 2,     // bulk-transfer chunk (client -> server)
  kChunkAck = 3,  // application-level chunk acknowledgement
};

struct FrameHeader {
  uint64_t token = 0;       // idempotency token; retries reuse it (when correct)
  uint64_t request_id = 0;  // logical request identity, stable across retries
  uint32_t session = 0;     // which session/connection issued it
  FrameKind kind = FrameKind::kRequest;
  uint32_t attempt = 1;     // 1-based attempt number of the sending side
  uint64_t arg = 0;         // chunk index for kChunk/kChunkAck
  uint64_t bytes = 0;       // frame payload length (set by SendFrame)
};

class FrameChannel {
 public:
  // `sender` queues the frame's bytes; the owner must wire the *peer*
  // endpoint's on_deliver to OnDeliverTotal (possibly multiplexed with an
  // integrity checker — set_on_deliver replaces, it does not chain).
  // A null sender keeps the ledger without a wire: unit tests drive
  // OnDeliverTotal by hand to simulate delivery.
  explicit FrameChannel(TcpEndpoint* sender) : sender_(sender) {}

  // Invoked, in send order, once a frame is fully delivered in order at the
  // receiver. Runs on the delivering side's event-loop thread.
  void set_on_frame(std::function<void(const FrameHeader&)> cb) { on_frame_ = std::move(cb); }

  // Queues `bytes` (>= 1) on the TCP sender and records the header.
  void SendFrame(uint64_t bytes, FrameHeader header);

  // Feed with the receiving endpoint's cumulative in-order delivery total.
  void OnDeliverTotal(uint64_t total_bytes);

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_delivered() const { return frames_delivered_; }

 private:
  struct Pending {
    uint64_t end_offset;  // stream offset one past the frame's last byte
    FrameHeader header;
  };

  TcpEndpoint* sender_;
  std::function<void(const FrameHeader&)> on_frame_;
  std::mutex mu_;
  std::deque<Pending> ledger_;
  uint64_t enqueued_bytes_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t frames_delivered_ = 0;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_WORKLOAD_FRAME_CHANNEL_H_
