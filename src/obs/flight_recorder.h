// FlightRecorder: a fixed-capacity ring buffer of structured trace events.
// The datapath writes without any synchronization: a recorder belongs to
// one simulation, which runs on one thread.
//
// Events carry a (time, shard, seq) triple; MergeTraces sorts by it, so the
// exported Chrome-trace JSON is byte-identical for identical runs. The
// shard id is the recorder's id (the Chrome-trace "tid"); chaos runs use a
// single recorder, shard 0.
// Export reuses src/util/json and the resulting file loads directly into
// chrome://tracing or https://ui.perfetto.dev.

#ifndef JUGGLER_SRC_OBS_FLIGHT_RECORDER_H_
#define JUGGLER_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/time.h"

namespace juggler {

enum class TraceKind : uint8_t {
  kGroFlush = 0,       // a=FlushReason, b=payload bytes, c=flow hash
  kPhase = 1,          // a=from phase (4 = none/creation), b=to phase, c=flow hash
  kEviction = 2,       // a=phase at eviction, b=held bytes, c=flow hash
  kNicInterrupt = 3,   // a=queue index, b=ring depth at fire
  kNicCoalesceArm = 4, // a=queue index, b=coalesce delay ns
  kNapiBudget = 5,     // a=queue index, b=ring depth left over
  kFault = 6,          // a=fault code (see kFaultCodeName), b=packet seq, c=payload bytes
  kAppEvent = 7,       // a=app code (see AppCodeName), b=request id, c=idempotency token
  kCorecClaim = 8,     // a=consumer index, b=window size, c=first ring seq
  kCorecCommit = 9,    // a=consumer index, b=window size, c=first ring seq
  kCorecHandoff = 10,  // a=run length, b=claim slots left behind the run
  kCorecStall = 11,    // a=completed slots parked behind the hole, b=slot depth
  kKindCount = 12,
};

const char* TraceKindName(TraceKind kind);

// Codes for TraceKind::kFault `a` arguments (FaultStage outcomes).
inline constexpr int kFaultCodeDrop = 0;
inline constexpr int kFaultCodeBurstDrop = 1;
inline constexpr int kFaultCodeCorrupt = 2;
inline constexpr int kFaultCodeTruncate = 3;
inline constexpr int kFaultCodeDuplicate = 4;
inline constexpr int kFaultCodeDelay = 5;
const char* FaultCodeName(int code);

// Decoder for TraceKind::kAppEvent `a` arguments; the codes themselves live
// in src/workload/app_resilience.h (obs stays below the workload layer).
const char* AppEventCodeName(int code);

struct TraceEvent {
  TimeNs time = 0;
  uint32_t shard = 0;
  uint32_t seq = 0;  // per-recorder monotone tiebreaker
  TraceKind kind = TraceKind::kGroFlush;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(uint32_t shard, size_t capacity = 1u << 16);

  void Record(TimeNs time, TraceKind kind, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0) {
    TraceEvent& e = ring_[head_];
    e.time = time;
    e.shard = shard_;
    e.seq = seq_++;
    e.kind = kind;
    e.a = a;
    e.b = b;
    e.c = c;
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;  // overwrote the oldest event
    }
  }

  uint32_t shard() const { return shard_; }
  uint64_t recorded() const { return seq_; }
  uint64_t dropped() const { return dropped_; }

  // Events currently held, oldest first.
  std::vector<TraceEvent> Snapshot() const;

 private:
  uint32_t shard_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint32_t seq_ = 0;
  uint64_t dropped_ = 0;
};

// Decoder callbacks so the exporter can print domain-specific names without
// obs depending on gro/core. Null members fall back to numeric strings.
struct TraceNamer {
  const char* (*flush_reason)(int) = nullptr;
  const char* (*phase)(int) = nullptr;  // phase 4 should decode to "none"
};

// Merge per-shard snapshots into one stream sorted by (time, shard, seq).
std::vector<TraceEvent> MergeTraces(const std::vector<const FlightRecorder*>& recorders);

// Chrome-trace ("Trace Event Format") JSON. Instant events, pid 1, tid =
// shard, ts in integer microseconds with the exact nanosecond kept in
// args.t_ns. `dropped` reports ring overwrites in otherData.
Json TraceToJson(const std::vector<TraceEvent>& events, uint64_t dropped,
                 const TraceNamer& namer);

// Writes Dump(1) of TraceToJson to `path`; false on I/O failure.
bool WriteTraceFile(const std::string& path, const Json& trace, std::string* error);

}  // namespace juggler

#endif  // JUGGLER_SRC_OBS_FLIGHT_RECORDER_H_
