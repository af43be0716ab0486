// Small-buffer-optimized, move-only callable for the simulation hot path.
//
// std::function<void()> requires copyable callables and heap-allocates any
// capture bigger than its tiny inline buffer (16 bytes on libstdc++). Nearly
// every callback in this tree captures `this` plus a couple of pointers or
// flags — 24 to 40 bytes — so each timer schedule paid one allocation, and
// packets crossing a propagation delay had to ride in a shared_ptr holder
// just to make the lambda copyable.
//
// TimerCallback fixes both: callables up to kInlineCapacity bytes live
// inline (no allocation), and move-only captures (PacketPtr!) are fine.
// Oversized callables still work through a heap fallback, so no call site
// ever has to care.
//
// Hot-path notes: the whole object is 56 bytes (the buffer is pointer-
// aligned; over-aligned captures take the heap path), so the EventLoop's
// timer slot (generation tag + location + callback) fits one cache line.
// Emplace() lets the event loop construct a callable straight into its slot
// — the schedule path never materialises a temporary TimerCallback and
// never moves one. Trivially-destructible captures (almost every
// schedule/cancel in a run: `this` plus PODs) carry a null destroy hook, so
// cancelling one is a test-and-branch, not an indirect call.

#ifndef JUGGLER_SRC_SIM_INLINE_CALLBACK_H_
#define JUGGLER_SRC_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace juggler {

class TimerCallback {
 public:
  // 48 bytes covers every capture in the tree today; bigger ones fall back
  // to the heap transparently.
  static constexpr size_t kInlineCapacity = 48;
  static constexpr size_t kInlineAlign = alignof(void*);

  TimerCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, TimerCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like std::function.
  TimerCallback(F&& f) {
    EmplaceImpl<F, D>(std::forward<F>(f));
  }

  // Construct a callable in place into this empty callback. The event loop
  // uses this to build the capture directly inside a free timer slot.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, TimerCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  void Emplace(F&& f) {
    EmplaceImpl<F, D>(std::forward<F>(f));
  }

  TimerCallback(TimerCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  TimerCallback& operator=(TimerCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  TimerCallback(const TimerCallback&) = delete;
  TimerCallback& operator=(const TimerCallback&) = delete;

  ~TimerCallback() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Destroys the held callable (releasing any resources it captured). A
  // null destroy hook marks a trivially-destructible capture: dropping it is
  // free.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(buf_);
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct from `from` into `to`, destroying the source object.
    void (*relocate)(void* from, void* to) noexcept;
    // Null when destruction is a no-op.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F, typename D>
  void EmplaceImpl(F&& f) {
    if constexpr (sizeof(D) <= kInlineCapacity && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  template <typename D>
  static D* Stored(void* storage) noexcept {
    return std::launder(reinterpret_cast<D*>(storage));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*Stored<D>(s))(); },
      [](void* from, void* to) noexcept {
        D* src = Stored<D>(from);
        ::new (to) D(std::move(*src));
        src->~D();
      },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* s) noexcept { Stored<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**Stored<D*>(s))(); },
      [](void* from, void* to) noexcept { ::new (to) D*(*Stored<D*>(from)); },
      [](void* s) noexcept { delete *Stored<D*>(s); },
  };

  alignas(kInlineAlign) std::byte buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_SIM_INLINE_CALLBACK_H_
