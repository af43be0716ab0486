// Discrete-event simulation core.
//
// A single EventLoop drives an experiment: components schedule callbacks at
// absolute or relative times; Run() executes them in time order. Two events
// at the same timestamp fire in scheduling order (a monotonically increasing
// tie-break id), which makes every experiment deterministic.
//
// Hot-path layout (the loop executes one event per simulated packet or more,
// so per-operation constants decide every experiment's wall clock):
//
//  * Callbacks are TimerCallback (small-buffer optimized, move-only): a
//    capture up to 48 bytes costs no allocation, and packets (PacketPtr)
//    ride timers directly.
//  * Timer identity is a generation-tagged slot: TimerId packs (generation,
//    slot index); the generation's low bit is the armed flag (odd = armed)
//    and bumps on arm and on release, so a stale id fails one 32-bit compare.
//  * Slots live in fixed-size chunks that never move, so a firing callback
//    runs in place. The generation bumps before the call (a callback
//    cancelling its own id is a no-op) and the slot is freed after it, so
//    timers the callback schedules never land on the running capture.
//  * Schedule files each event once, at schedule time, into the container it
//    waits in: a hierarchical timer wheel of kWheelLevels levels of 64
//    buckets, keyed by the highest radix-64 digit in which the expiry
//    differs from the wheel's base time (`wheel_time_`): one clz, one bucket
//    append, one bitmap OR. Levels are visited in strict time order and a
//    bucket cascades toward the base as the wheel advances; events inside
//    the base's own 64ns span go to a small `due_` binary heap. A level-1
//    bucket is exactly one such span, so a harvested one holding two or
//    more entries is counting-sorted on the expiry's low six bits into
//    `ready_`, popped from the back (a lone entry joins the heap); running
//    the earlier of the two fronts gives exact (when, order) order. The
//    wheel changes *where events wait*, never *when they fire*. Expiries
//    beyond the top level (> ~68.7 simulated seconds) wait in an overflow
//    list that is re-bucketed when the wheel drains to it.
//  * Wheel entries are 24-byte PODs ({when, order, id}), so bucket appends,
//    cascades and heap sifts move trivial values only.
//
// Cancel() releases the slot immediately (freeing the callback's captures).
// Each slot remembers where its entry was filed; the arm-then-cancel pattern
// of TCP RTO re-arming and GRO hrtimers cancels the entry it just filed,
// still the newest there, so Cancel pops it outright. Other cancelled
// entries are dropped lazily at the front, and once dead entries dominate
// the containers are compacted, so churn costs O(live timers) memory.

#ifndef JUGGLER_SRC_SIM_EVENT_LOOP_H_
#define JUGGLER_SRC_SIM_EVENT_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace juggler {

// Thrown by Run()/RunUntil()/RunSteps() when a scheduled callback throws a
// std::exception: the original what() annotated with where the loop stood —
// simulated time, executed-event count, pending live timers — so failure
// forensics gets a located failure instead of a bare message. The loop
// itself stays consistent (the firing timer's slot is released before the
// rethrow), so a caller that catches may keep running.
class EventLoopCallbackError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Packs (generation << 32 | slot index + 1); 0 is never a valid id.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimerId = 0;

class EventLoop {
 public:
  using Callback = TimerCallback;

  // Wheel geometry: radix-64 digits, kWheelLevels of them. Level l holds
  // events whose expiry differs from wheel_time_ first in digit l, i.e.
  // deltas up to 64^(l+1) ticks of 1ns. Six levels span 64^6 ns ≈ 68.7
  // simulated seconds; farther expiries wait in the overflow list.
  static constexpr int kWheelLevelBits = 6;
  static constexpr int kWheelSlots = 1 << kWheelLevelBits;
  static constexpr int kWheelLevels = 6;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimeNs now() const { return now_; }

  // Stable address of the simulation clock, for components that read the
  // time on every packet (the GRO context): one load, no call.
  const TimeNs* now_ptr() const { return &now_; }

  // Schedule a callable to run `delay` (>= 0) after the current time. The
  // template overloads construct the capture directly inside the timer slot
  // (TimerCallback::Emplace) — scheduling a lambda never materialises a
  // temporary callback object and never moves one.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback>>>
  TimerId Schedule(TimeNs delay, F&& f) {
    return ScheduleAt(now_ + delay, std::forward<F>(f));
  }
  TimerId Schedule(TimeNs delay, Callback&& cb) { return ScheduleAt(now_ + delay, std::move(cb)); }

  // Schedule at absolute time `when` (>= now()). Defined inline below so
  // call sites inline it without LTO — Schedule is the single hottest call
  // in every experiment.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback>>>
  TimerId ScheduleAt(TimeNs when, F&& f);
  TimerId ScheduleAt(TimeNs when, Callback&& cb);

  // Cancel a pending timer. Cancelling an already-fired or invalid id is a
  // no-op, which keeps call sites simple ("cancel whatever might be armed").
  void Cancel(TimerId id);

  bool IsPending(TimerId id) const {
    const uint32_t index = SlotIndexOf(id);
    return index < num_slots_ && Slot(index).generation == GenerationOf(id);
  }

  // Timestamp of the earliest live (not cancelled) pending event, or
  // kNoEvent when the queue is empty. Prunes dead entries and cascades wheel
  // buckets as a side effect, so repeated calls stay O(1) amortised.
  static constexpr TimeNs kNoEvent = INT64_MAX;
  TimeNs next_event_time();

  // Drops every pending event and live timer, freeing captured resources
  // (packets riding timers) immediately. now() is unchanged. Used by owners
  // that must release every in-flight packet at a controlled point — the
  // chaos harness shuts the loop down after tearing down the testbed, then
  // counts any packet still outstanding in the pool as leaked.
  void Shutdown();

  // Run until the event queue drains.
  void Run();

  // Run events with time <= `deadline`; afterwards now() == deadline even if
  // the queue drained early, so rate computations use the full window.
  void RunUntil(TimeNs deadline);

  // Run at most `max_events` events (testing aid). Returns events executed.
  uint64_t RunSteps(uint64_t max_events);

  // Pending event entries, including not-yet-reclaimed cancelled ones.
  // Derived from container sizes: the hot path keeps no entry counter.
  size_t pending_events() const;
  // Live (schedulable, not cancelled, not fired) timer ids. Every armed
  // timer holds its slot off the free list, so the count is derived — no
  // counter on the hot path. A running callback's slot returns to the free
  // list when the callback does, so the count includes it until then.
  size_t pending_timer_ids() const { return num_slots_ - free_slots_.size(); }
  uint64_t executed_events() const { return executed_; }

  // Request that Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

 private:
  // Trivial event entry: the callback stays in its slot so bucket moves and
  // due-heap sifts copy 24 bytes, not a callable.
  struct Event {
    TimeNs when;
    uint64_t order;  // tie-break: FIFO among equal timestamps
    TimerId id;
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.order > b.order;
    }
  };

  // Where a timer's Event entry was filed at schedule time, so Cancel can
  // try the pop-the-newest fast path. Cascades do not update it (that would
  // cost a slot access per moved entry): it is a hint, and Cancel pops only
  // when the container's back entry carries the cancelled id itself.
  struct Where {
    uint8_t level;   // wheel level, or kLocDue / kLocOverflow
    uint8_t bucket;  // bucket index within the level
  };
  static constexpr uint8_t kLocDue = 0xFF;
  static constexpr uint8_t kLocOverflow = 0xFE;

  // One cache line: the liveness check and the callback share a miss.
  struct alignas(64) TimerSlot {
    uint32_t generation = 0;  // low bit doubles as the armed flag: odd = armed
    Where filed = {};
    TimerCallback cb;
  };
  static_assert(sizeof(TimerSlot) == 64);

  // Slots are allocated kSlotChunk (16 KiB) at a time and never move.
  static constexpr int kSlotChunkBits = 8;
  static constexpr uint32_t kSlotChunk = 1u << kSlotChunkBits;

  static uint32_t SlotIndexOf(TimerId id) { return static_cast<uint32_t>(id) - 1; }
  static uint32_t GenerationOf(TimerId id) { return static_cast<uint32_t>(id >> 32); }
  static TimerId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<TimerId>(generation) << 32) | (index + 1);
  }

  TimerSlot& Slot(uint32_t index) const {
    return slot_chunks_[index >> kSlotChunkBits][index & (kSlotChunk - 1)];
  }

  // True when the entry's id still names a live timer (armed generations are
  // odd, so a released slot can never match an outstanding id).
  bool IsLive(TimerId id) const { return Slot(SlotIndexOf(id)).generation == GenerationOf(id); }

  // Files an event where it belongs relative to wheel_time_: the due heap
  // when at or before wheel_time_|63 (already due, or due within the base's
  // 64ns window), a level >= 1 bucket within the wheel's span, the overflow
  // list otherwise. Returns where it went. Takes fields, not an Event: a
  // just-stored temporary reloaded wide stalls store forwarding.
  Where FileEvent(TimeNs when, uint64_t order, TimerId id);
  // FileEvent's due-heap tail, out of line to keep the schedule path small.
  void PushDue(TimeNs when, uint64_t order, TimerId id);
  // Bucket/overflow append whose reallocation is out of line (Grow), so the
  // inlined schedule path carries no vector-growth code.
  [[gnu::always_inline]] static void Append(std::vector<Event>& vec, TimeNs when,
                                            uint64_t order, TimerId id) {
    if (vec.size() == vec.capacity()) [[unlikely]] {
      Grow(vec);
    }
    if (vec.size() == vec.capacity()) {
      __builtin_unreachable();  // Grow made room; push_back's growth path drops out
    }
    vec.push_back(Event{when, order, id});
  }
  static void Grow(std::vector<Event>& vec);

  // Arms a freshly acquired slot and files its entry.
  TimerId CommitSlot(TimeNs when, uint32_t index, TimerSlot& slot);

  // Pops a free slot (or grows the table). The caller installs the callback
  // and then calls CommitSlot.
  uint32_t AcquireSlot();
  void AddSlotChunk();

  // Moves the next occupied bucket (in global time order) toward ready_ or
  // the due heap, advancing wheel_time_ and cascading higher-level buckets.
  // Returns false — without disturbing the wheel — when nothing is pending
  // at or before `limit`. Callers call it only with ready_ and due_ empty.
  bool HarvestNext(TimeNs limit);

  // Drops dead entries from the fronts of ready_ and the due heap.
  void PruneDueFront();

  // Runs events in (when, order) order until `max_events` have run, the
  // queue drains, the next is after `deadline`, or Stop(); returns the count.
  uint64_t RunEvents(TimeNs deadline, uint64_t max_events);

  // Exception path of RunEvents, after the slot is back on the free list:
  // rethrows the in-flight exception annotated with the loop's position.
  [[noreturn]] void RethrowAnnotated();

  // Sweeps cancelled entries out of every bucket, ready_, the due heap and
  // the overflow list once they outnumber the live ones; amortised O(1) per
  // cancellation. The live/dead ratio check needs the total entry count,
  // which is derived, so a watermark (compact_threshold_) defers the
  // derivation until the dead count could plausibly dominate.
  void MaybeCompact();

  // Small binary heap ordered by EventLater (front = earliest event): events
  // filed directly into the wheel base's level-0 span (expiry <=
  // wheel_time_|63) and the in-span part of a higher-level cascade. Wheel
  // entries all expire strictly later, so the earlier of its front and
  // ready_.back() is the global minimum.
  std::vector<Event> due_;
  // The last harvested level-1 bucket, sorted so back() fires first.
  std::vector<Event> ready_;
  uint32_t tick_end_[kWheelSlots] = {};  // harvest counting-sort scratch
  // buckets_[l][s]: events whose expiry differs from wheel_time_ first in
  // radix-64 digit l, with digit value s. occupied_ has a bit for every
  // non-empty bucket (and possibly for one a cancel emptied).
  std::vector<Event> buckets_[kWheelLevels][kWheelSlots];
  uint64_t occupied_[kWheelLevels] = {};
  // Expiries beyond the top level's span; re-bucketed when the wheel drains.
  std::vector<Event> overflow_;
  // Radix base of the wheel: every wheel entry's expiry is > wheel_time_|63
  // (level-0 spans file straight into due_), and its level is the highest
  // radix-64 digit differing from wheel_time_. Advances monotonically as
  // buckets are harvested; may run ahead of now_ (harvest pulled a far
  // bucket while the loop idled), in which case events scheduled in between
  // simply wait in the due heap.
  TimeNs wheel_time_ = 0;

  std::vector<std::unique_ptr<TimerSlot[]>> slot_chunks_;
  uint32_t num_slots_ = 0;
  std::vector<uint32_t> free_slots_;
  size_t dead_entries_ = 0;  // cancelled entries not yet reclaimed
  // Next dead_entries_ value at which MaybeCompact re-derives the total
  // entry count and re-decides; reset to the floor after each compaction.
  size_t compact_threshold_ = kCompactFloor;
  static constexpr size_t kCompactFloor = 1024;
  TimeNs now_ = 0;
  uint64_t next_order_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

// --- inline hot path -------------------------------------------------------
// Schedule and Cancel are the two most frequent operations in any run. They
// are forced inline: GCC -O2 outlined both with a six-register prologue,
// which cost the arm-then-cancel churn benchmark ~10% per operation.

[[gnu::always_inline]] inline EventLoop::Where EventLoop::FileEvent(TimeNs when, uint64_t order, TimerId id) {
  if (when <= (wheel_time_ | (kWheelSlots - 1))) {
    // Already due, or due within the wheel base's level-0 span: straight to
    // the due heap, no bucket hop, no later cascade.
    PushDue(when, order, id);
    return {kLocDue, 0};
  }
  // Level >= 1 here: an expiry past wheel_time_|63 must differ from
  // wheel_time_ in some digit above 0.
  const uint64_t diff = static_cast<uint64_t>(when) ^ static_cast<uint64_t>(wheel_time_);
  const int level = (63 - __builtin_clzll(diff)) / kWheelLevelBits;
  if (level >= kWheelLevels) {
    Append(overflow_, when, order, id);
    return {kLocOverflow, 0};
  }
  const int bucket = static_cast<int>(
      (static_cast<uint64_t>(when) >> (level * kWheelLevelBits)) & (kWheelSlots - 1));
  Append(buckets_[level][bucket], when, order, id);
  occupied_[level] |= 1ULL << bucket;
  return {static_cast<uint8_t>(level), static_cast<uint8_t>(bucket)};
}

inline uint32_t EventLoop::AcquireSlot() {
  if (free_slots_.empty()) {
    if ((num_slots_ & (kSlotChunk - 1)) == 0) {
      AddSlotChunk();
    }
    return num_slots_++;
  }
  const uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

[[gnu::always_inline]] inline TimerId EventLoop::CommitSlot(TimeNs when, uint32_t index, TimerSlot& slot) {
  const uint32_t generation = slot.generation + 1;  // odd: armed
  slot.generation = generation;
  const TimerId id = MakeId(index, generation);
  slot.filed = FileEvent(when, next_order_++, id);
  return id;
}

template <typename F, typename>
inline TimerId EventLoop::ScheduleAt(TimeNs when, F&& f) {
  JUG_CHECK(when >= now_);
  const uint32_t index = AcquireSlot();
  TimerSlot& slot = Slot(index);
  slot.cb.Emplace(std::forward<F>(f));
  return CommitSlot(when, index, slot);
}

inline TimerId EventLoop::ScheduleAt(TimeNs when, Callback&& cb) {
  JUG_CHECK(when >= now_);
  const uint32_t index = AcquireSlot();
  TimerSlot& slot = Slot(index);
  slot.cb = std::move(cb);
  return CommitSlot(when, index, slot);
}

[[gnu::always_inline]] inline void EventLoop::Cancel(TimerId id) {
  if (id == kInvalidTimerId) {
    return;
  }
  const uint32_t index = SlotIndexOf(id);
  if (index >= num_slots_ || Slot(index).generation != GenerationOf(id)) {
    return;  // already fired, already cancelled, or never valid
  }
  TimerSlot& slot = Slot(index);
  slot.cb.Reset();  // free captured resources at cancel time
  ++slot.generation;  // odd -> even: outstanding ids go stale
  free_slots_.push_back(index);
  const uint8_t level = slot.filed.level;
  const uint8_t bucket = slot.filed.bucket;
  // Pop-the-newest fast path: the arm-then-cancel pattern (TCP RTO re-armed
  // by the next ACK, GRO hrtimers) cancels the entry it just filed, which
  // is still the newest in its container — pop it outright and leave no
  // garbage. due_ is a binary heap, but its back() is a leaf, so the same
  // trick holds whenever the entry didn't sift on insert.
  std::vector<Event>& vec = level == kLocDue        ? due_
                            : level == kLocOverflow ? overflow_
                                                    : buckets_[level][bucket];
  if (!vec.empty() && vec.back().id == id) {
    // An emptied bucket keeps its occupancy bit (clearing it would chain the
    // next schedule's OR behind this store); harvest passes it as empty.
    vec.pop_back();
    return;
  }
  ++dead_entries_;
  if (dead_entries_ >= compact_threshold_) {
    MaybeCompact();
  }
}

}  // namespace juggler

#endif  // JUGGLER_SRC_SIM_EVENT_LOOP_H_
