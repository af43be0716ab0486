#include "src/sim/event_loop.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "src/util/logging.h"

namespace juggler {

void EventLoop::PushDue(TimeNs when, uint64_t order, TimerId id) {
  due_.emplace_back(when, order, id);
  std::push_heap(due_.begin(), due_.end(), EventLater{});
}

void EventLoop::Grow(std::vector<Event>& vec) {
  vec.reserve(std::max<size_t>(16, vec.capacity() * 2));
}

void EventLoop::AddSlotChunk() {
  slot_chunks_.push_back(std::make_unique<TimerSlot[]>(kSlotChunk));
}

size_t EventLoop::pending_events() const {
  size_t total = ready_.size() + due_.size() + overflow_.size();
  for (int level = 0; level < kWheelLevels; ++level) {
    uint64_t occ = occupied_[level];
    while (occ != 0) {
      total += buckets_[level][__builtin_ctzll(occ)].size();
      occ &= occ - 1;
    }
  }
  return total;
}

void EventLoop::MaybeCompact() {
  // Compact only once dead entries both dominate the pending set and are
  // numerous enough that the O(n) sweep amortises to O(1) per cancellation.
  // The caller gated on compact_threshold_, so the O(buckets) total
  // derivation runs rarely; when the dead share is still a minority, push
  // the watermark to the earliest point it could reach half.
  const size_t total = pending_events();
  if (dead_entries_ * 2 < total) {
    // Re-check once dead could have caught up to the current live count.
    compact_threshold_ = total - dead_entries_;
    return;
  }
  const auto sweep = [this](std::vector<Event>& vec) {
    std::erase_if(vec, [this](const Event& e) { return !IsLive(e.id); });
  };
  for (int level = 0; level < kWheelLevels; ++level) {
    uint64_t occ = occupied_[level];
    while (occ != 0) {
      const int bucket = __builtin_ctzll(occ);
      occ &= occ - 1;
      sweep(buckets_[level][bucket]);
      if (buckets_[level][bucket].empty()) {
        occupied_[level] &= ~(1ULL << bucket);
      }
    }
  }
  sweep(overflow_);
  sweep(ready_);  // order-preserving: stays sorted
  sweep(due_);
  std::make_heap(due_.begin(), due_.end(), EventLater{});
  dead_entries_ = 0;
  compact_threshold_ = kCompactFloor;
}

void EventLoop::PruneDueFront() {
  while (!ready_.empty() && !IsLive(ready_.back().id)) {
    ready_.pop_back();
    --dead_entries_;
  }
  while (!due_.empty() && !IsLive(due_.front().id)) {
    std::pop_heap(due_.begin(), due_.end(), EventLater{});
    due_.pop_back();
    --dead_entries_;
  }
}

bool EventLoop::HarvestNext(TimeNs limit) {
  // The lowest occupied level holds the globally earliest wheel events:
  // every level-l event expires before every event of any level above it
  // (its expiry agrees with wheel_time_ on all digits > l; a higher-level
  // event exceeds wheel_time_ in one of those digits).
  int level = -1;
  for (int l = 0; l < kWheelLevels; ++l) {
    if (occupied_[l] != 0) {
      level = l;
      break;
    }
  }
  if (level < 0) {
    // Wheel empty: fall back to the overflow list (expiries that were beyond
    // the top level's span). Prune dead entries, find the earliest live
    // expiry, and re-bucket everything relative to it — entries still too
    // far out simply land back in overflow.
    if (overflow_.empty()) {
      return false;
    }
    TimeNs min_when = kNoEvent;
    size_t kept = 0;
    for (size_t r = 0; r < overflow_.size(); ++r) {
      if (!IsLive(overflow_[r].id)) {
        --dead_entries_;
        continue;
      }
      overflow_[kept++] = overflow_[r];
      min_when = std::min(min_when, overflow_[r].when);
    }
    overflow_.resize(kept);
    if (kept == 0 || min_when > limit) {
      return false;
    }
    wheel_time_ = min_when;
    std::vector<Event> pending;
    pending.swap(overflow_);
    for (const Event& e : pending) {
      FileEvent(e.when, e.order, e.id);
    }
    return true;
  }

  const int bucket = __builtin_ctzll(occupied_[level]);
  const int shift = level * kWheelLevelBits;
  const uint64_t upper = static_cast<uint64_t>(wheel_time_) >> (shift + kWheelLevelBits);
  const TimeNs slot_start = static_cast<TimeNs>(
      ((upper << kWheelLevelBits) | static_cast<uint64_t>(bucket)) << shift);
  if (slot_start > limit) {
    return false;
  }
  occupied_[level] &= ~(1ULL << bucket);
  std::vector<Event>& vec = buckets_[level][bucket];
  wheel_time_ = slot_start;
  if (level == 1 && vec.size() >= 2) {
    // The bucket is the new base's level-0 window: its entries share every
    // expiry bit above the low six, so a counting sort on those orders it
    // into ready_ (empty here). Buckets hold scheduling order (a cascade only
    // lands in an empty bucket), so stability settles equal expiries. Dead
    // entries ride along. A lone entry skips the sort and joins the due heap
    // below: on sparse runs (99% of netfpga_reorder's level-1 buckets) the
    // sort's setup costs more than one heap push.
    uint64_t ticks = 0;
    for (const Event& e : vec) {
      const int tick = static_cast<int>(e.when & (kWheelSlots - 1));
      if ((ticks >> tick & 1) == 0) {
        ticks |= 1ULL << tick;
        tick_end_[tick] = 0;
      }
      ++tick_end_[tick];
    }
    // Earliest tick at the back; each tick's run fills downward.
    uint32_t end = static_cast<uint32_t>(vec.size());
    for (uint64_t m = ticks; m != 0; m &= m - 1) {
      const int tick = __builtin_ctzll(m);
      const uint32_t count = tick_end_[tick];
      tick_end_[tick] = end;
      end -= count;
    }
    ready_.assign(vec.begin(), vec.end());  // sizes it; every entry is overwritten
    for (const Event& e : vec) {
      ready_[--tick_end_[e.when & (kWheelSlots - 1)]] = e;
    }
    vec.clear();
    return true;
  }
  // Everything else cascades into strictly lower levels, or into the due
  // heap when inside the new base's level-0 window (a lone level-1 entry).
  // FileEvent never targets the bucket being drained.
  for (const Event& e : vec) {
    FileEvent(e.when, e.order, e.id);
  }
  vec.clear();
  return true;
}

TimeNs EventLoop::next_event_time() {
  for (;;) {
    PruneDueFront();
    if (!ready_.empty() || !due_.empty()) {
      return std::min(ready_.empty() ? kNoEvent : ready_.back().when,
                      due_.empty() ? kNoEvent : due_.front().when);
    }
    if (!HarvestNext(kNoEvent)) {
      return kNoEvent;
    }
  }
}

void EventLoop::Shutdown() {
  ready_.clear();
  due_.clear();
  for (auto& level : buckets_) {
    for (std::vector<Event>& bucket : level) {
      bucket.clear();
    }
  }
  std::fill(std::begin(occupied_), std::end(occupied_), 0);
  overflow_.clear();
  // Unarmed slots are already on the free list — or running, and freed when
  // their callback returns.
  for (uint32_t index = 0; index < num_slots_; ++index) {
    TimerSlot& slot = Slot(index);
    if ((slot.generation & 1) != 0) {  // armed
      slot.cb.Reset();
      ++slot.generation;
      free_slots_.push_back(index);
    }
  }
  dead_entries_ = 0;
  compact_threshold_ = kCompactFloor;
}

uint64_t EventLoop::RunEvents(TimeNs deadline, uint64_t max_events) {
  stopped_ = false;
  uint64_t ran = 0;
  while (ran < max_events && !stopped_) {
    // Every wheel entry expires after wheel_time_|63, and every ready or due
    // entry at or before it, so the earlier of ready_.back() and the due
    // front is the global minimum. The liveness check is fused into the pop:
    // one slot load serves both the dead-entry skip and the callback.
    const bool from_ready =
        !ready_.empty() && (due_.empty() || EventLater{}(due_.front(), ready_.back()));
    if (!from_ready && due_.empty()) {
      if (!HarvestNext(deadline)) {
        break;
      }
      continue;
    }
    const Event event = from_ready ? ready_.back() : due_.front();
    const uint32_t index = SlotIndexOf(event.id);
    TimerSlot& slot = Slot(index);
    const bool live = slot.generation == GenerationOf(event.id);
    if (live && event.when > deadline) {
      break;
    }
    if (from_ready) {
      ready_.pop_back();
    } else {
      std::pop_heap(due_.begin(), due_.end(), EventLater{});
      due_.pop_back();
    }
    if (!live) {
      --dead_entries_;
      continue;
    }
    JUG_CHECK(event.when >= now_);
    now_ = event.when;
    ++slot.generation;  // odd -> even: the firing id is stale from here on
    ++executed_;
    ++ran;
    // In place: chunks never move, and the slot stays off the free list
    // until the call returns. EH is zero-cost unless a callback throws.
    try {
      slot.cb();
    } catch (...) {
      slot.cb.Reset();
      free_slots_.push_back(index);
      RethrowAnnotated();
    }
    slot.cb.Reset();
    free_slots_.push_back(index);
  }
  return ran;
}

void EventLoop::RethrowAnnotated() {
  // The annotation turns an anonymous what() into a located failure.
  try {
    throw;
  } catch (const EventLoopCallbackError&) {
    throw;  // already annotated by a nested loop
  } catch (const std::exception& e) {
    throw EventLoopCallbackError(
        "event-loop callback threw at t=" + std::to_string(now_) + "ns (event #" +
        std::to_string(executed_) + ", " + std::to_string(pending_timer_ids()) +
        " pending timers): " + e.what());
  }
}

void EventLoop::Run() { RunEvents(std::numeric_limits<TimeNs>::max(), UINT64_MAX); }

void EventLoop::RunUntil(TimeNs deadline) {
  RunEvents(deadline, UINT64_MAX);
  if (now_ < deadline && !stopped_) {
    now_ = deadline;
  }
}

uint64_t EventLoop::RunSteps(uint64_t max_events) {
  return RunEvents(std::numeric_limits<TimeNs>::max(), max_events);
}

}  // namespace juggler
