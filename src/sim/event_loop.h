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
//    capture up to 48 bytes costs no allocation, and move-only captures
//    (PacketPtr) are allowed, so packets ride timers directly instead of in
//    shared_ptr holders.
//  * Timer identity is a generation-tagged slot: TimerId packs (generation,
//    slot index). The generation's low bit doubles as the armed flag (odd =
//    armed), so liveness is a single 32-bit compare — no separate flag, no
//    hash set insert/erase per timer as the old `pending_ids_` design did. A
//    slot's generation bumps on arm and on release, so a stale id (cancelled
//    or already fired) simply fails the compare.
//  * Schedule does no ordering work for far-out timers. New events land in a
//    small staging array; the arm-then-cancel pattern TCP RTO re-arming and
//    GRO hrtimers hit millions of times cancels the entry it just staged, so
//    the schedule/cancel pair is two slot writes plus an array append/pop —
//    it never touches the wheel, the heap, or any comparison at all. The
//    staging array drains the next time the loop needs ordering (RunOne or
//    next_event_time), which never happens between an ACK's cancel and its
//    re-arm.
//  * Events that survive staging live in a hierarchical timer wheel, not a
//    binary heap. kWheelLevels levels of 64 buckets each bucket events by
//    the highest radix-64 digit in which their expiry differs from the
//    wheel's base time (`wheel_time_`), so filing is O(1): one clz, one
//    bucket append, one bitmap OR — no sift through a heap that mostly holds
//    far-future RTO and coalesce timers. Levels are visited in strict time
//    order (all level-l events expire before every level-(l+1) event), and a
//    bucket cascades toward the base as the wheel advances; events inside
//    the base's own 64ns span go straight to a small `due_` binary heap that
//    restores exact (when, order) execution order. The wheel changes *where
//    events wait*, never *when they fire* — digests are byte-identical to
//    the heap era. Expiries beyond the top level (> ~68.7 simulated seconds
//    out) wait in an overflow list that is re-bucketed when the wheel drains
//    to it.
//  * Wheel entries are 24-byte PODs ({when, order, id}); the callback stays
//    in the slot, so staging, bucket appends and cascades move trivial
//    values only.
//
// Timers are cancellable: Schedule() returns a TimerId and Cancel() releases
// the slot immediately (the callback's resources are freed at cancel time).
// Each timer slot remembers where its entry currently waits (staging array,
// wheel bucket, due heap, overflow): when the cancelled entry is still the
// newest there, Cancel pops it outright and no garbage is left behind.
// Entries cancelled out of the middle are skipped lazily when their
// container is drained, and once dead entries dominate the structures are
// compacted in place, so churn-heavy soaks cost O(live timers) memory, not
// O(cancellations).

#ifndef JUGGLER_SRC_SIM_EVENT_LOOP_H_
#define JUGGLER_SRC_SIM_EVENT_LOOP_H_

#include <algorithm>
#include <cstdint>
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
// itself stays consistent (the firing timer's slot was already released), so
// a caller that catches may keep running.
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
    return index < slots_.size() && slots_[index].generation == GenerationOf(id);
  }

  // Timestamp of the earliest live (not cancelled) pending event, or
  // kNoEvent when the queue is empty. Drains the staging array, prunes dead
  // entries and cascades wheel buckets as a side effect, so repeated calls
  // stay O(1) amortised.
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

  // Pending event entries (staging + wheel + due heap + overflow), including
  // not-yet-reclaimed cancelled ones. Derived from container sizes — the
  // schedule/cancel hot path maintains no entry counter.
  size_t pending_events() const;
  // Live (schedulable, not cancelled, not fired) timer ids. Every armed
  // timer holds its slot off the free list, so the count is derived — no
  // counter on the hot path.
  size_t pending_timer_ids() const { return slots_.size() - free_slots_.size(); }
  uint64_t executed_events() const { return executed_; }

  // Request that Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

 private:
  // Trivial event entry: the callback stays in its slot so staging, bucket
  // moves and due-heap sifts copy 24 bytes, not a callable.
  struct Event {
    TimeNs when;
    uint64_t order;  // tie-break: FIFO among equal timestamps
    TimerId id;
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.order > b.order;
    }
  };

  // Where a pending timer's Event entry currently lives, so Cancel can try
  // the pop-the-newest fast path. Updated on every drain/cascade.
  static constexpr uint8_t kLocDue = 0xFF;
  static constexpr uint8_t kLocOverflow = 0xFE;
  static constexpr uint8_t kLocStaged = 0xFD;

  struct TimerSlot {
    uint32_t generation = 0;  // low bit doubles as the armed flag: odd = armed
    uint8_t loc_level = 0;    // wheel level, or kLocStaged / kLocDue / kLocOverflow
    uint8_t loc_bucket = 0;   // bucket index within the level
    TimerCallback cb;
  };

  static uint32_t SlotIndexOf(TimerId id) { return static_cast<uint32_t>(id) - 1; }
  static uint32_t GenerationOf(TimerId id) { return static_cast<uint32_t>(id >> 32); }
  static TimerId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<TimerId>(generation) << 32) | (index + 1);
  }

  // True when the entry's id still names a live timer (armed generations are
  // odd, so a released slot can never match an outstanding id).
  bool IsLive(TimerId id) const {
    return slots_[SlotIndexOf(id)].generation == GenerationOf(id);
  }

  // Frees `index` for reuse; the generation bump (odd -> even) invalidates
  // outstanding ids (the not-yet-harvested wheel entry, stale handles held
  // by components).
  void ReleaseSlot(uint32_t index) {
    ++slots_[index].generation;
    free_slots_.push_back(index);
  }

  // Files `e` where it belongs relative to wheel_time_: the due heap when it
  // falls inside the wheel base's level-0 span (at or before wheel_time_|63
  // — one compare covers both "already due" and "fires within the current
  // 64ns window"), a wheel bucket of level >= 1 when within the wheel's
  // span, the overflow list otherwise. Records the location in the timer's
  // slot.
  void FileEvent(const Event& e, TimerSlot& slot);

  // Arms a freshly acquired slot and stages its entry.
  TimerId CommitSlot(TimeNs when, uint32_t index, TimerSlot& slot);

  // Staging-bypass tail of CommitSlot: files an immediately-due event into
  // the due heap. Out-of-line so the heap sift's code never inflates the
  // inlined schedule fast path (keeping it inline measured ~40% slower on
  // the churn microbenchmark purely from code growth).
  TimerId CommitDue(TimeNs when, TimerId id);

  // Pops a free slot (or grows the table). The caller installs the callback
  // and then calls CommitSlot.
  uint32_t AcquireSlot();

  // Moves staged events into their ordered homes (due heap / wheel /
  // overflow), dropping cancelled ones. Must run before any ordering
  // decision; RunOne and next_event_time call it on entry.
  void DrainStaged();

  // Moves the next occupied bucket (in global time order) toward the due
  // heap, advancing wheel_time_ and cascading higher-level buckets. Returns
  // false — without disturbing the wheel — when nothing is pending at or
  // before `limit`. One call makes one bucket (or the overflow list) of
  // progress; callers loop until the due heap holds a live entry.
  bool HarvestNext(TimeNs limit);

  // Drops dead entries from the front of the due heap.
  void PruneDueFront();

  // Pops and runs one event; returns false when the queue is empty or the
  // next event is after `deadline`.
  bool RunOne(TimeNs deadline);

  // Sweeps cancelled entries out of the staging array, every bucket, the
  // due heap and the overflow list once they outnumber the live ones;
  // amortised O(1) per cancellation. The live/dead ratio check needs the
  // total entry count, which is derived, so a watermark
  // (compact_threshold_) defers the derivation until the dead count could
  // plausibly dominate.
  void MaybeCompact();

  // Newly scheduled events, in scheduling order, not yet ordered by expiry.
  std::vector<Event> staged_;
  // Small binary heap ordered by EventLater (front = earliest event):
  // everything with expiry <= wheel_time_|63 — events harvested from the
  // wheel that are next to fire, plus events filed directly into the wheel
  // base's level-0 span. Wheel entries all expire strictly later, so
  // whenever due_ is non-empty its front is the global minimum.
  std::vector<Event> due_;
  // buckets_[l][s]: events whose expiry differs from wheel_time_ first in
  // radix-64 digit l, with digit value s. occupied_ mirrors non-emptiness.
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

  std::vector<TimerSlot> slots_;
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
// Schedule and Cancel are the two most frequent operations in any run; they
// live here so call sites inline them without needing LTO.

inline void EventLoop::FileEvent(const Event& e, TimerSlot& slot) {
  if (e.when <= (wheel_time_ | (kWheelSlots - 1))) {
    // Already due, or due within the wheel base's level-0 span: straight to
    // the due heap, no bucket hop, no later cascade.
    slot.loc_level = kLocDue;
    due_.push_back(e);
    std::push_heap(due_.begin(), due_.end(), EventLater{});
    return;
  }
  // Level >= 1 here: an expiry past wheel_time_|63 must differ from
  // wheel_time_ in some digit above 0.
  const uint64_t diff = static_cast<uint64_t>(e.when) ^ static_cast<uint64_t>(wheel_time_);
  const int level = (63 - __builtin_clzll(diff)) / kWheelLevelBits;
  if (level >= kWheelLevels) {
    slot.loc_level = kLocOverflow;
    overflow_.push_back(e);
    return;
  }
  const int bucket = static_cast<int>(
      (static_cast<uint64_t>(e.when) >> (level * kWheelLevelBits)) & (kWheelSlots - 1));
  slot.loc_level = static_cast<uint8_t>(level);
  slot.loc_bucket = static_cast<uint8_t>(bucket);
  buckets_[level][bucket].push_back(e);
  occupied_[level] |= 1ULL << bucket;
}

inline uint32_t EventLoop::AcquireSlot() {
  if (free_slots_.empty()) {
    const uint32_t index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    return index;
  }
  const uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

inline TimerId EventLoop::CommitSlot(TimeNs when, uint32_t index, TimerSlot& slot) {
  const uint32_t generation = slot.generation + 1;  // odd: armed
  slot.generation = generation;
  const TimerId id = MakeId(index, generation);
  // Staging bypass: when the staging array is empty, peek at wheel_time_ and
  // file an immediately-due event (inside the wheel base's level-0 span)
  // straight into the due heap. This is the event-chain pattern — a callback
  // schedules its successor a tick out and RunOne drained staged_ on entry —
  // and it skips the stage-append + drain hop those events used to pay. The
  // bypass is legal regardless of staged_ contents (firing order is the
  // global (when, order) total order, independent of which container an
  // entry waits in), but it is *restricted* to an empty staging array so the
  // schedule/cancel churn pattern keeps its O(1) pop-the-newest guarantee:
  // churn arms land in staged_ as before (two slot writes plus an
  // append/pop), and the peek costs them one pointer compare.
  if (staged_.empty() && when <= (wheel_time_ | (kWheelSlots - 1))) {
    slot.loc_level = kLocDue;
    return CommitDue(when, id);
  }
  // Otherwise staged — even an event due this instant. Keeping the far-timer
  // schedule path branch-free (no due-heap sift) measured ~1.7x faster on
  // the churn microbenchmark than filing imminent events straight into the
  // due heap, and the drain files them there on the next ordering decision
  // anyway.
  slot.loc_level = kLocStaged;
  staged_.push_back(Event{when, next_order_++, id});
  return id;
}

template <typename F, typename>
inline TimerId EventLoop::ScheduleAt(TimeNs when, F&& f) {
  JUG_CHECK(when >= now_);
  const uint32_t index = AcquireSlot();
  TimerSlot& slot = slots_[index];
  slot.cb.Emplace(std::forward<F>(f));
  return CommitSlot(when, index, slot);
}

inline TimerId EventLoop::ScheduleAt(TimeNs when, Callback&& cb) {
  JUG_CHECK(when >= now_);
  const uint32_t index = AcquireSlot();
  TimerSlot& slot = slots_[index];
  slot.cb = std::move(cb);
  return CommitSlot(when, index, slot);
}

inline void EventLoop::Cancel(TimerId id) {
  if (id == kInvalidTimerId) {
    return;
  }
  const uint32_t index = SlotIndexOf(id);
  if (index >= slots_.size() || slots_[index].generation != GenerationOf(id)) {
    return;  // already fired, already cancelled, or never valid
  }
  TimerSlot& slot = slots_[index];
  slot.cb.Reset();  // free captured resources at cancel time
  const uint8_t level = slot.loc_level;
  const uint8_t bucket = slot.loc_bucket;
  ReleaseSlot(index);
  // Pop-the-newest fast path: the arm-then-cancel pattern (TCP RTO re-armed
  // by the next ACK, GRO hrtimers) cancels the entry it just staged, which
  // is still the newest in its container — pop it outright and leave no
  // garbage. due_ is a binary heap, but its back() is a leaf, so the same
  // trick holds whenever the entry didn't sift on insert.
  std::vector<Event>* vec;
  if (level == kLocStaged) {
    vec = &staged_;
  } else if (level == kLocDue) {
    vec = &due_;
  } else if (level == kLocOverflow) {
    vec = &overflow_;
  } else {
    vec = &buckets_[level][bucket];
  }
  if (!vec->empty() && vec->back().id == id) {
    vec->pop_back();
    if (level < kWheelLevels && vec->empty()) {
      occupied_[level] &= ~(1ULL << bucket);
    }
    return;
  }
  ++dead_entries_;
  if (dead_entries_ >= compact_threshold_) {
    MaybeCompact();
  }
}

}  // namespace juggler

#endif  // JUGGLER_SRC_SIM_EVENT_LOOP_H_
