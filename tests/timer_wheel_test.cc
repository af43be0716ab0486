// Edge cases of the EventLoop's hierarchical timer wheel: overflow beyond
// the top level, cancellation after a cascade has moved an entry, Shutdown
// with resources riding wheel slots, re-arm storms at a single deadline, and
// the generation-tag liveness invariants. The baseline ordering semantics
// live in sim_test.cc; these tests pin the machinery the wheel added.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/packet/packet.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace juggler {
namespace {

// 64^6 ns: the span of the six-level wheel. Anything scheduled farther out
// waits in the overflow list until the wheel drains to it.
constexpr TimeNs kWheelSpan = 1LL << (EventLoop::kWheelLevels * EventLoop::kWheelLevelBits);

TEST(TimerWheelTest, FarFutureBeyondTopLevelFiresInOrder) {
  EventLoop loop;
  std::vector<int> order;
  // Three events past the wheel span (overflow list), interleaved with two
  // inside it, scheduled shuffled.
  loop.ScheduleAt(2 * kWheelSpan + 7, [&] { order.push_back(4); });
  loop.ScheduleAt(100, [&] { order.push_back(1); });
  loop.ScheduleAt(3 * kWheelSpan, [&] { order.push_back(5); });
  loop.ScheduleAt(kWheelSpan + 5, [&] { order.push_back(3); });
  loop.ScheduleAt(Ms(1), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.now(), 3 * kWheelSpan);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.pending_timer_ids(), 0u);
}

TEST(TimerWheelTest, OverflowRebucketsRepeatedly) {
  // Each firing drains the wheel completely, forcing the overflow list to
  // re-bucket for the next one — and re-overflow events still too far out.
  EventLoop loop;
  std::vector<TimeNs> fired;
  for (int i = 1; i <= 4; ++i) {
    loop.ScheduleAt(i * kWheelSpan + i, [&, i] { fired.push_back(loop.now()); });
  }
  loop.Run();
  ASSERT_EQ(fired.size(), 4u);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i - 1)], i * kWheelSpan + i);
  }
}

TEST(TimerWheelTest, CancelledOverflowEntryNeverFires) {
  EventLoop loop;
  bool cancelled_ran = false;
  bool kept_ran = false;
  const TimerId doomed = loop.ScheduleAt(2 * kWheelSpan, [&] { cancelled_ran = true; });
  loop.ScheduleAt(2 * kWheelSpan + 1, [&] { kept_ran = true; });
  // Re-bucket the overflow list before cancelling, so the entry no longer
  // sits where it was filed and the cancel can't take the pop-the-newest
  // fast path.
  loop.next_event_time();
  loop.Cancel(doomed);
  loop.Run();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(kept_ran);
  EXPECT_EQ(loop.now(), 2 * kWheelSpan + 1);
}

TEST(TimerWheelTest, CancelAfterCascadeStillPreventsExecution) {
  // RunUntil drags the wheel base forward, cascading the level-1 bucket that
  // holds the victims into the due heap; cancelling afterwards must still
  // win, including for an entry buried mid-heap (lazy dead-entry skip).
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(10, [&] { order.push_back(0); });
  const TimerId doomed = loop.Schedule(70, [&] { order.push_back(1); });
  loop.Schedule(71, [&] { order.push_back(2); });
  loop.Schedule(72, [&] { order.push_back(3); });
  loop.RunUntil(64);  // fires t=10; harvest cascades the t=70..72 bucket
  EXPECT_TRUE(loop.IsPending(doomed));
  loop.Cancel(doomed);
  EXPECT_FALSE(loop.IsPending(doomed));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
}

TEST(TimerWheelTest, ShutdownFreesPacketsRidingWheelSlots) {
  // Timers carry PacketPtr captures at every horizon: the due span, a
  // level-1 bucket, a mid-level bucket, and the overflow list. Shutdown must release all of
  // them back to the pool immediately — not leak them in wheel slots.
  PacketPool& pool = PacketPool::ThreadLocal();
  // Warm the freelist so every Acquire below recycles (keeps the arithmetic
  // exact: no fresh allocations mid-test).
  {
    std::vector<PacketPtr> warm;
    for (int i = 0; i < 8; ++i) {
      warm.push_back(AllocPacket());
    }
  }
  const size_t free_before = pool.free_size();
  EventLoop loop;
  const TimeNs horizons[] = {5, 1000, Ms(3), kWheelSpan + 1};
  for (TimeNs when : horizons) {
    PacketPtr p = AllocPacket();
    loop.ScheduleAt(when, [p = std::move(p)] { (void)p; });
  }
  // Each capture is filed at schedule time: due heap, two wheel buckets,
  // overflow.
  EXPECT_EQ(pool.free_size(), free_before - 4);
  loop.Shutdown();
  EXPECT_EQ(pool.free_size(), free_before);  // every packet returned
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.pending_timer_ids(), 0u);
  // The loop stays usable after Shutdown.
  bool ran = false;
  loop.Schedule(1, [&] { ran = true; });
  loop.Run();
  EXPECT_TRUE(ran);
}

TEST(TimerWheelTest, ReArmStormAtOneDeadlineStaysBounded) {
  // The RTO idiom, concentrated: one deadline re-armed 100k times. The
  // cancel must pop the entry it just filed, so the pending-entry count
  // stays O(1) instead of O(re-arms).
  EventLoop loop;
  const TimeNs deadline = Ms(5);
  TimerId armed = kInvalidTimerId;
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    loop.Cancel(armed);
    armed = loop.ScheduleAt(deadline, [&] { ++fired; });
  }
  EXPECT_LE(loop.pending_events(), 2u);
  EXPECT_EQ(loop.pending_timer_ids(), 1u);
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), deadline);
}

TEST(TimerWheelTest, ReArmStormAcrossDrainsCompacts) {
  // Same storm, but next_event_time() moves the armed entry out of the
  // bucket it was filed in, so the subsequent cancel can't take the fast
  // path.
  // Compaction must keep dead entries from accumulating without bound.
  EventLoop loop;
  const TimeNs deadline = Ms(5);
  TimerId armed = kInvalidTimerId;
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    loop.Cancel(armed);
    armed = loop.ScheduleAt(deadline, [&] { ++fired; });
    loop.next_event_time();  // cascades the entry toward execution
  }
  EXPECT_LE(loop.pending_events(), 3000u);  // compaction floor, not 100k
  loop.Run();
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, GenerationTagOutlivesCascades) {
  // An id stays pending while its entry migrates from its wheel bucket to
  // the ready run, and goes stale the instant the callback runs.
  EventLoop loop;
  const TimerId id = loop.ScheduleAt(70, [] {});
  EXPECT_TRUE(loop.IsPending(id));  // filed in a level-1 bucket
  loop.next_event_time();
  EXPECT_TRUE(loop.IsPending(id));  // harvested into the ready run
  loop.RunUntil(69);
  EXPECT_TRUE(loop.IsPending(id));  // still waiting there
  loop.Run();
  EXPECT_FALSE(loop.IsPending(id));  // fired
  loop.Cancel(id);                   // stale cancel: must be a no-op
  EXPECT_EQ(loop.executed_events(), 1u);
}

TEST(TimerWheelTest, FiredSlotReuseInvalidatesStaleId) {
  // After a timer fires, its slot is recycled for the next Schedule. The
  // stale id's generation no longer matches, so cancelling it must not kill
  // the new tenant.
  EventLoop loop;
  bool second_ran = false;
  const TimerId first = loop.Schedule(1, [] {});
  loop.Run();
  const TimerId second = loop.Schedule(1, [&] { second_ran = true; });
  EXPECT_NE(first, second);
  loop.Cancel(first);  // stale: generations differ even in the same slot
  EXPECT_TRUE(loop.IsPending(second));
  loop.Run();
  EXPECT_TRUE(second_ran);
}

TEST(TimerWheelTest, SameDeadlineFifoAcrossContainers) {
  // Ties break by scheduling order even when the contenders reach the due
  // heap by different routes: one filed directly (due span), one cascaded
  // from a bucket, one re-bucketed from overflow.
  EventLoop loop;
  std::vector<int> order;
  const TimeNs when = 2 * kWheelSpan + 10;
  loop.ScheduleAt(when, [&] { order.push_back(0); });  // via overflow
  loop.next_event_time();
  loop.ScheduleAt(when, [&] { order.push_back(1); });  // filed later
  loop.ScheduleAt(when, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---- differential event order ----------------------------------------------

// The specification the wheel must match: a binary heap of (when, order)
// with lazy cancellation — the loop's pre-wheel design, kept tiny.
class ReferenceLoop {
 public:
  TimeNs now() const { return now_; }

  TimerId ScheduleAt(TimeNs when, std::function<void()> fn) {
    const TimerId id = ++next_id_;
    heap_.emplace(when, id);  // ids rise with scheduling order
    live_.emplace(id, std::move(fn));
    return id;
  }

  void Cancel(TimerId id) { live_.erase(id); }

  uint64_t RunSteps(uint64_t max_events) {
    uint64_t ran = 0;
    while (ran < max_events && RunOne(EventLoop::kNoEvent)) {
      ++ran;
    }
    return ran;
  }

  void RunUntil(TimeNs deadline) {
    while (RunOne(deadline)) {
    }
    now_ = std::max(now_, deadline);
  }

  TimeNs next_event_time() {
    PruneFront();
    return heap_.empty() ? EventLoop::kNoEvent : std::get<0>(heap_.top());
  }

 private:
  using Entry = std::tuple<TimeNs, TimerId>;

  void PruneFront() {
    while (!heap_.empty() && live_.count(std::get<1>(heap_.top())) == 0) {
      heap_.pop();
    }
  }

  bool RunOne(TimeNs deadline) {
    PruneFront();
    if (heap_.empty() || std::get<0>(heap_.top()) > deadline) {
      return false;
    }
    const auto [when, id] = heap_.top();
    heap_.pop();
    now_ = when;
    std::function<void()> fn = std::move(live_.at(id));
    live_.erase(id);
    fn();
    return true;
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_map<TimerId, std::function<void()>> live_;
  TimerId next_id_ = 0;
  TimeNs now_ = 0;
};

// Drives one loop through a seeded script of schedules, cancels and partial
// runs, from the top level and from inside callbacks, and returns the tags
// in firing order (with now() at each firing). Every decision comes from the
// script's own Rng and the firing order, so two loops that fire the same
// sequence take the same actions — the first divergence shows.
template <typename Loop>
class Script {
 public:
  explicit Script(uint64_t seed) : rng_(seed), seed_(seed) {}

  std::vector<std::pair<uint64_t, TimeNs>> Run() {
    for (int round = 0; round < 400; ++round) {
      const int ops = 1 + static_cast<int>(rng_.NextBounded(6));
      for (int op = 0; op < ops; ++op) {
        TopLevelOp();
      }
      switch (rng_.NextBounded(4)) {
        case 0:
          loop_.RunSteps(rng_.NextBounded(8));
          break;
        case 1:
          loop_.RunUntil(loop_.now() + static_cast<TimeNs>(rng_.NextBounded(20'000)));
          break;
        case 2:
          loop_.next_event_time();  // cascades without running anything
          break;
        default:
          break;
      }
    }
    loop_.RunUntil(EventLoop::kNoEvent - 1);
    return fired_;
  }

 private:
  // Expiry offsets that stress the wheel's edges: now, the level-0 span,
  // level boundaries (64^k - 1, 64^k, 64^k + 1), deep levels and overflow.
  TimeNs PickDelay(Rng& rng) {
    switch (rng.NextBounded(8)) {
      case 0:
        return 0;
      case 1:
        return static_cast<TimeNs>(rng.NextBounded(64));
      case 2: {
        const int level = 1 + static_cast<int>(rng.NextBounded(EventLoop::kWheelLevels - 1));
        return (TimeNs{1} << (level * EventLoop::kWheelLevelBits)) - 1 +
               static_cast<TimeNs>(rng.NextBounded(3));
      }
      case 3:
        return static_cast<TimeNs>(rng.NextBounded(4096));
      case 4:
        return static_cast<TimeNs>(rng.NextBounded(1 << 20));
      case 5:
        return static_cast<TimeNs>(rng.NextBounded(1ULL << 30));
      case 6:
        return kWheelSpan + static_cast<TimeNs>(rng.NextBounded(3 * kWheelSpan));
      default:
        return -1;  // tie: reuse an expiry already in use
    }
  }

  void ScheduleOne(Rng& rng) {
    TimeNs delay = PickDelay(rng);
    TimeNs when;
    if (delay < 0) {
      when = whens_.empty() ? loop_.now() : whens_[rng.NextBounded(whens_.size())];
      if (when < loop_.now()) {
        when = loop_.now();
      }
    } else {
      when = loop_.now() + delay;
    }
    whens_.push_back(when);
    const uint64_t tag = ids_.size();
    ids_.push_back(loop_.ScheduleAt(when, [this, tag] { Fire(tag); }));
  }

  void CancelOne(Rng& rng) {
    if (ids_.empty()) {
      return;
    }
    // Mostly the newest (the arm-then-cancel fast path), else anywhere —
    // including ids that already fired or were cancelled (no-ops).
    const size_t pick = rng.NextBool(0.5) ? ids_.size() - 1 : rng.NextBounded(ids_.size());
    loop_.Cancel(ids_[pick]);
  }

  void TopLevelOp() {
    const uint64_t kind = rng_.NextBounded(5);
    if (kind <= 2) {
      ScheduleOne(rng_);
    } else if (kind == 3) {
      CancelOne(rng_);
    } else {
      ScheduleOne(rng_);  // arm, then cancel at once
      loop_.Cancel(ids_.back());
    }
  }

  void Fire(uint64_t tag) {
    fired_.emplace_back(tag, loop_.now());
    if (ids_.size() > 20'000) {
      return;  // bound the cascade of children
    }
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + tag);
    const uint64_t children = rng.NextBounded(3);
    for (uint64_t c = 0; c < children; ++c) {
      ScheduleOne(rng);
    }
    if (rng.NextBool(0.3)) {
      CancelOne(rng);
    }
    if (rng.NextBool(0.1)) {
      loop_.Cancel(ids_[tag]);  // own id: already fired, must be a no-op
    }
  }

  Loop loop_;
  Rng rng_;
  uint64_t seed_;
  std::vector<TimerId> ids_;  // by tag
  std::vector<TimeNs> whens_;
  std::vector<std::pair<uint64_t, TimeNs>> fired_;
};

TEST(TimerWheelTest, FiringOrderMatchesReferenceHeap) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const auto expected = Script<ReferenceLoop>(seed).Run();
    const auto actual = Script<EventLoop>(seed).Run();
    ASSERT_GT(expected.size(), 100u) << "seed " << seed;
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "seed " << seed << ", firing #" << i;
    }
  }
}

TEST(TimerWheelTest, CallbackGrowingSlotStorageRunsInPlace) {
  // A running callback schedules enough timers to add several slot chunks,
  // then cancels its own id and reads its captures. The capture must still
  // be intact (the callback runs in its slot, and slots never move), the
  // self-cancel must be a no-op, and every child must fire.
  EventLoop loop;
  TimerId self = kInvalidTimerId;
  int children_fired = 0;
  std::string seen;
  auto label = std::make_shared<std::string>("capture survives growth");
  self = loop.Schedule(5, [&, label] {
    for (int i = 0; i < 5000; ++i) {
      loop.Schedule(1 + i % 100, [&children_fired] { ++children_fired; });
    }
    EXPECT_FALSE(loop.IsPending(self));
    loop.Cancel(self);
    seen = *label;
  });
  loop.Run();
  EXPECT_EQ(seen, "capture survives growth");
  EXPECT_EQ(children_fired, 5000);
  EXPECT_EQ(label.use_count(), 1);  // the fired capture was destroyed
  EXPECT_EQ(loop.pending_timer_ids(), 0u);
  EXPECT_EQ(loop.executed_events(), 5001u);
}

}  // namespace
}  // namespace juggler
