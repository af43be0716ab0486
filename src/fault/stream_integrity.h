// End-to-end stream integrity: every application byte delivered exactly
// once, in order, with no gaps — no matter what the fault layer did to the
// wire.
//
// A StreamIntegrityChecker attaches to the receiving TcpEndpoint and
// observes two planes:
//
//   * the app plane, via set_on_deliver: the cumulative in-order delivery
//     total must be strictly increasing (each callback announces progress),
//   * the GRO/TCP boundary, via set_segment_tap: the data segments GRO hands
//     up must, across the run, cover [0, expected_bytes) — a range GRO never
//     surfaced would be a silent gap, even if TCP's counters look right.
//
// Violations go to the shared AuditLog; FinalCheck() runs the end-of-run
// conditions (full delivery, full coverage). stream_digest() summarises the
// app plane for differential checks: a fold over the final delivery total
// and the anomaly points, constant work per callback (see below).

#ifndef JUGGLER_SRC_FAULT_STREAM_INTEGRITY_H_
#define JUGGLER_SRC_FAULT_STREAM_INTEGRITY_H_

#include <cstdint>
#include <string>

#include "src/fault/audit_log.h"
#include "src/packet/packet.h"
#include "src/tcp/tcp_endpoint.h"
#include "src/util/seq_range_set.h"

namespace juggler {

class StreamIntegrityChecker {
 public:
  StreamIntegrityChecker(std::string name, AuditLog* log);

  // Installs the on_deliver and segment-tap observers on `receiver`.
  // Replaces any previously-set callbacks, so attach before (or instead of)
  // other consumers of those hooks.
  void Attach(TcpEndpoint* receiver);

  void set_expected_bytes(uint64_t bytes) { expected_bytes_ = bytes; }

  // Feed methods — Attach() wires these up, and unit tests drive them
  // directly to exercise the checker without a full stack.
  void OnDeliverTotal(uint64_t total_bytes);
  void OnSegment(const Segment& segment);

  // End-of-run conditions: final total == expected, segment coverage is one
  // contiguous range [0, expected). Returns true when no new violation was
  // recorded by this call.
  bool FinalCheck();

  uint64_t delivered_total() const { return delivered_total_; }
  uint64_t segment_bytes_covered() const { return covered_.TotalBytes(); }
  uint64_t deliver_callbacks() const { return deliver_callbacks_; }

  // Digest of what the app received: the final in-order delivery total
  // mixed with a fold over every anomaly point (the total before and after
  // each non-increasing callback), in order. The simulator carries no payload
  // bytes, so stream content is a fixed function of position; a hash over the
  // delivered bytes could therefore only encode where delivery ended and
  // where anomalies struck, and this folds exactly that in O(1) per callback.
  // By construction it is independent of chunking, poll boundaries and
  // timing: two runs agree iff they delivered the same contiguous prefix
  // exactly once — the cross-driver (RSS vs COREC) conformance oracle.
  uint64_t stream_digest() const;

 private:
  std::string name_;
  AuditLog* log_;
  uint64_t expected_bytes_ = 0;
  uint64_t delivered_total_ = 0;
  uint64_t deliver_callbacks_ = 0;
  // Running fold of (total before, total after) per anomaly, in order.
  uint64_t anomaly_fold_ = 14695981039346656037ULL;
  // Byte ranges seen in data segments at the GRO/TCP boundary. Overlaps are
  // legal (retransmissions reach TCP); gaps at the end of the run are not.
  SeqRangeSet covered_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_FAULT_STREAM_INTEGRITY_H_
