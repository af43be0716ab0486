// Juggler: the paper's reordering-resilient GRO engine (§4).
//
// Juggler extends GRO with a per-RX-queue `gro_table` of flow entries. Each
// entry keeps an out-of-order queue of merged runs plus the state of §4.1:
//
//   flush_timestamp — last time this flow flushed packets up the stack
//   seq_next        — best guess of the largest sequence already flushed
//   lost_seq        — first missing byte when a loss was inferred
//
// A flow moves through the five phases of Figure 5 / Table 1 and is always a
// member of exactly one of three lists (Figure 4):
//
//   active list        — build-up + active-merging flows (not safe to evict)
//   inactive list      — post-merge flows (safe to evict: empty OOO queue)
//   loss-recovery list — flows that hit ofo_timeout (eviction would cause
//                        repeated timeouts, §4.3)
//
// Flush conditions are Table 2 verbatim: retransmissions (seq before
// seq_next) bypass the queue, full 64KB segments and PSH/URG flags flush
// eagerly, metadata mismatches split runs, and the two timeouts —
// inseq_timeout and ofo_timeout — are checked at poll completions and in one
// high-resolution timer callback per gro_table.
//
// On in-order traffic the fast path is byte-for-byte standard GRO: packets
// merge into the head run and no out-of-order machinery runs, so there is no
// extra CPU cost (§5.1.1).

#ifndef JUGGLER_SRC_CORE_JUGGLER_H_
#define JUGGLER_SRC_CORE_JUGGLER_H_

#include <cstdint>
#include <vector>

#include "src/cpu/cost_model.h"
#include "src/gro/flow_table.h"
#include "src/gro/gro_engine.h"
#include "src/gro/segment_builder.h"
#include "src/util/flat_fifo.h"
#include "src/util/intrusive_list.h"
#include "src/util/seq.h"

namespace juggler {

struct JugglerConfig {
  // Max time partially-merged in-sequence data may be held (Table 2 row 5).
  // Rule of thumb (§5.2.1): the time to receive one max-size TSO segment at
  // line rate — 52µs at 10Gb/s, 13µs at 40Gb/s. The paper's default is 15µs.
  TimeNs inseq_timeout = Us(15);
  // Max time to wait for a missing packet before declaring it lost (Table 2
  // row 6). Set to the expected delay difference across paths minus the
  // interrupt-coalescing period (§5.2.1). The paper's default is 50µs.
  TimeNs ofo_timeout = Us(50);
  // Hard cap on gro_table entries (§3.3: strict upper limit against memory
  // exhaustion). §5.2.2 finds 8–64 suffices.
  size_t max_flows = 64;
  // GRO merge cap ("64KB" = 45 MTU payloads).
  uint32_t max_segment_payload = kMaxTsoPayload;
  // Remark 1 ablation: when false, seq_next is pinned to the first packet's
  // sequence number instead of learning a minimum during build-up.
  bool enable_buildup_phase = true;
  // Test-only planted defect for the failure-forensics harness: over-counts
  // buffered_bytes_out by one on every Table-2 row-6 (ofo_timeout) flush
  // that moved data, breaking the conservation law the auditor enforces.
  // Must stay false outside forensics tests.
  bool debug_flush_accounting_skew = false;
};

enum class FlowPhase : uint8_t {
  kBuildUp = 0,     // learning seq_next; it may move backwards (§4.2.2)
  kActiveMerge,     // merging + flushing; seq_next only moves forward (§4.2.3)
  kPostMerge,       // OOO queue empty; safe to evict (§4.2.4)
  kLossRecovery,    // ofo_timeout inferred a loss; evict-averse (§4.2.5)
};

const char* FlowPhaseName(FlowPhase phase);

// Pseudo-phase index for "no phase yet" in transition accounting and trace
// events: a flow's creation edge is recorded as none -> build_up.
inline constexpr int kFlowPhaseNone = 4;
inline constexpr int kFlowPhaseCount = 4;

// A flow's out-of-order queue of merged runs (see FlowEntry::ooo_queue).
using RunQueue = FlatFifo<SegmentBuilder>;

// Insert position of `seq` among the run starts: the index of the first run
// whose start is after `seq` — what a tail-ward scan stepping past every such
// run returns, found by galloping back from the tail (probes at distance
// 1, 2, 4, ...) and then bisecting the last stride. Costs what that scan
// costs when the answer is near the back, O(log runs) deep in the queue.
// Exact whenever `seq` and the run starts lie within 2^31 of one another,
// since then SeqAfter totally orders them across the 2^32 wrap.
size_t RunInsertIndex(const RunQueue& queue, Seq seq);

// One gro_table entry (struct flow_entry in §4.1).
struct FlowEntry {
  FiveTuple key;
  FlowPhase phase = FlowPhase::kBuildUp;
  // Out-of-order queue: runs of merged contiguous packets, sorted by start
  // sequence. Contiguous same-metadata runs coalesce, so the queue stays as
  // short as the number of distinct holes + metadata boundaries. One
  // contiguous buffer with a popped-prefix head index (FlatFifo): flushing
  // the head run is O(1), and inserting or coalescing away run i shifts
  // only the shorter side of i — late packets filling the oldest holes of a
  // deep queue (the Fig. 13 two-lane pattern) move a few runs, not all.
  RunQueue ooo_queue;
  TimeNs flush_timestamp = 0;
  Seq seq_next = 0;
  Seq lost_seq = 0;
  // Distinguishes reincarnations of the same five-tuple after eviction, so
  // auditors tracking per-flow history don't compare across generations.
  uint64_t generation = 0;
  IntrusiveListNode list_node;
};

struct JugglerStats {
  uint64_t flows_created = 0;
  uint64_t evictions_inactive = 0;
  uint64_t evictions_active = 0;
  uint64_t evictions_loss = 0;
  // Evictions forced by ApplyFlowCapPressure (a subset of the three above).
  uint64_t pressure_evictions = 0;
  uint64_t inseq_timeout_flushes = 0;
  uint64_t ofo_timeout_events = 0;
  uint64_t seq_next_backward_moves = 0;
  uint64_t loss_recovery_entries = 0;
  uint64_t loss_recovery_exits = 0;
  uint64_t duplicate_packets = 0;  // overlapped an existing buffered run
  size_t max_active_list_len = 0;
  size_t max_inactive_list_len = 0;
  size_t max_loss_list_len = 0;
  // Deepest any flow's OOO queue has been, in runs. Updated only where a new
  // run enters a queue, so the merge and fold fast paths pay nothing for it.
  size_t max_ooo_runs = 0;
  // Conservation-law counters for the invariant auditor: every payload byte
  // entering an OOO queue must leave it through a Deliver (in == out + held).
  uint64_t buffered_bytes_in = 0;
  uint64_t buffered_bytes_out = 0;
  // §4 phase machine accounting. phase_transitions[from][to] counts edges
  // actually taken (from = kFlowPhaseNone for creation); the by-phase byte
  // counters split the conservation law per phase: for each phase,
  // enqueued = flushed + evicted + held.
  uint64_t phase_transitions[kFlowPhaseCount + 1][kFlowPhaseCount] = {};
  uint64_t enqueued_bytes_by_phase[kFlowPhaseCount] = {};
  uint64_t flushed_bytes_by_phase[kFlowPhaseCount] = {};
  uint64_t evicted_bytes = 0;
};

class Juggler : public GroEngine {
 public:
  Juggler(const CpuCostModel* costs, const JugglerConfig& config);

  TimeNs Receive(PacketPtr packet) override;
  TimeNs ReceiveBatch(PacketPtr* packets, size_t count) override;
  TimeNs PollComplete() override;
  TimeNs OnTimer() override;
  // Overload pressure: lower the §3.3 hard cap and evict down to it
  // immediately, in the §4.3 order (0 restores the configured nominal cap).
  // Held bytes are flushed, never discarded, so the conservation law
  // survives brown-outs. The new cap persists — flows created under
  // pressure stay bounded by it until the next call changes it.
  TimeNs ApplyFlowCapPressure(size_t max_flows) override;
  std::string name() const override { return "juggler"; }

  const JugglerConfig& config() const { return config_; }
  const JugglerStats& juggler_stats() const { return jstats_; }

  // Instantaneous list lengths, for the Figure 15/16 experiments.
  size_t active_list_len() const { return active_list_.size(); }
  size_t inactive_list_len() const { return inactive_list_.size(); }
  size_t loss_list_len() const { return loss_list_.size(); }
  size_t flow_table_size() const { return table_.size(); }
  // Table-owned memory (slots + record slabs); bench/perf_scale divides this
  // by the flow count for the tracked bytes-per-flow figure.
  size_t flow_table_resident_bytes() const { return table_.resident_bytes(); }

  // Introspection for debugging and tooling: a snapshot of one flow entry.
  struct FlowSnapshot {
    FiveTuple key;
    FlowPhase phase;
    Seq seq_next;
    Seq lost_seq;
    size_t queue_runs;
    TimeNs since_flush;
  };
  std::vector<FlowSnapshot> DebugSnapshot() const;

  // Structural snapshot for the fault layer's invariant auditor: every table
  // entry annotated with the list it is physically linked on (found by
  // walking the three lists, independently of entry->phase, so list/phase
  // disagreement is observable), plus the engine-wide conservation counters.
  enum class ListId : int { kNone = -1, kActive = 0, kInactive = 1, kLoss = 2 };
  struct AuditView {
    struct Flow {
      FiveTuple key;
      FlowPhase phase;
      ListId list;          // list the entry was found on; kNone = orphaned
      uint64_t generation;
      Seq seq_next;
      Seq lost_seq;
      uint64_t buffered_bytes;  // payload held in the OOO queue
      size_t queue_runs;
      TimeNs flush_timestamp;
    };
    std::vector<Flow> flows;
    size_t active_len = 0;
    size_t inactive_len = 0;
    size_t loss_len = 0;
    size_t table_size = 0;
    TimeNs armed_deadline = kNoTimer;
    uint64_t buffered_bytes_in = 0;
    uint64_t buffered_bytes_out = 0;
  };
  AuditView Audit() const;

  TimeNs armed_deadline() const { return armed_deadline_; }

 private:
  using FlowList = IntrusiveList<FlowEntry, &FlowEntry::list_node>;

  FlowList* ListFor(FlowPhase phase);

  // Moves `entry` to the list matching `phase` and updates entry->phase.
  void SetPhase(FlowEntry* entry, FlowPhase phase);

  // Conservation accounting: every buffered-byte movement funnels through
  // these so the per-phase split (enqueued = flushed + evicted + held)
  // stays consistent with the engine-wide in/out counters.
  void NoteEnqueued(FlowEntry* entry, uint32_t bytes) {
    jstats_.buffered_bytes_in += bytes;
    jstats_.enqueued_bytes_by_phase[static_cast<int>(entry->phase)] += bytes;
  }
  void NoteFlushed(FlowEntry* entry, FlushReason reason, uint32_t bytes) {
    jstats_.buffered_bytes_out += bytes;
    if (reason == FlushReason::kEviction) {
      jstats_.evicted_bytes += bytes;
    } else {
      jstats_.flushed_bytes_by_phase[static_cast<int>(entry->phase)] += bytes;
    }
  }

  // Creates an entry for `tuple`, evicting if the table is full. Adds the
  // eviction cost to *cost. Never fails: the table has at least one entry to
  // evict when full (max_flows >= 1).
  FlowEntry* CreateEntry(const FiveTuple& tuple, TimeNs* cost);

  // §4.3 eviction order: inactive first, then FIFO from the active list,
  // then (last resort, to honor the strict memory bound) loss recovery.
  TimeNs EvictOne();
  TimeNs EvictEntry(FlowEntry* entry);

  // Inserts a data packet (seq >= seq_next, or build-up) into the OOO queue,
  // merging/coalescing runs. The position comes from RunInsertIndex; the
  // modelled cost stays juggler_ooo_insert plus juggler_ooo_search_per_run
  // per run stepped over from the tail, since those constants price the
  // kernel patch's list walk, not the simulator's search. Returns CPU cost;
  // sets *duplicate when the packet overlapped an existing run and was
  // delivered directly.
  TimeNs InsertPacket(FlowEntry* entry, const Packet& p, bool* duplicate);

  // Batch-fold fast path (see ReceiveBatch): folds a leading run of same-
  // flow ACK-only data packets, each extending the tail of one existing OOO
  // run, into a single ExtendTail commit plus batched stats/cost/release.
  // Returns the number of packets consumed (0 = not foldable; the caller
  // runs the per-packet path for packets[0]). Adds the exact per-packet CPU
  // cost Receive() would have charged to *cost.
  size_t TryFoldRun(PacketPtr* packets, size_t count, TimeNs* cost);

  // Flushes contiguous runs starting at seq_next. When `ready_only`, stops
  // at the first run that is neither full nor flagged; otherwise flushes the
  // whole contiguous prefix (timeout/eviction path).
  TimeNs FlushPrefix(FlowEntry* entry, bool ready_only, FlushReason reason);

  // Flushes the entire queue in sequence order (ofo_timeout / eviction).
  TimeNs FlushAll(FlowEntry* entry, FlushReason reason);

  // §4.2.5: ofo_timeout fired with a hole at the head.
  TimeNs HandleOfoTimeout(FlowEntry* entry);

  // Phase transition after a flush (Figure 5 edges out of build-up /
  // active-merging).
  void UpdatePhaseAfterFlush(FlowEntry* entry);

  // Timeout checks over the active and loss-recovery lists (§4.2.2: "checked
  // at the end of the polling interval and in one high resolution timer
  // callback per gro_table").
  TimeNs CheckTimeouts();

  // Earliest pending deadline of `entry`, or kNoTimer.
  TimeNs FlowDeadline(const FlowEntry& entry) const;

  void RearmTimer();

  const CpuCostModel* costs_;
  JugglerConfig config_;
  // The configured max_flows, so ApplyFlowCapPressure(0) can undo a
  // brown-out's shrink of config_.max_flows.
  const size_t nominal_max_flows_;
  JugglerStats jstats_;

  // Open-addressing table with slab-pinned entries: FlowEntry addresses are
  // stable for the entry's lifetime, which the intrusive phase lists and
  // last_entry_ memoization both rely on.
  FlowTable<FlowEntry> table_;
  // Memoizes the entry the last data packet hit. Datacenter RX queues see
  // long single-flow runs, so this turns the per-packet hash lookup into one
  // tuple compare on the common path. Pure memoization (entries are slab
  // pinned): invalidated only when its entry leaves the table.
  FlowEntry* last_entry_ = nullptr;
  FlowList active_list_;
  FlowList inactive_list_;
  FlowList loss_list_;
  TimeNs armed_deadline_ = kNoTimer;
};

// Snapshot a JugglerStats into `registry` under `label`: phase-transition
// counters labelled "from->to", eviction/list-occupancy and OOO-queue-depth
// gauges and the conservation byte counters.
void PublishJugglerStats(const JugglerStats& stats, const std::string& label,
                         MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_CORE_JUGGLER_H_
