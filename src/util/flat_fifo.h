// A vector-backed queue for small trivially-destructible elements: a FIFO
// that also supports positional insert and erase.
//
// std::deque is the obvious container for a push-back/pop-front queue, but
// libstdc++'s deque allocates its map block plus one 512-byte node the
// moment it is constructed — even when it never holds an element. With one
// queue per TCP endpoint that hidden allocation dominates bytes-per-flow at
// the 1M-connection scale point. FlatFifo keeps elements in a single
// contiguous vector with a popped-prefix head index: an empty queue owns no
// heap at all, and a drained queue rewinds to reuse its buffer.
//
// Element i lives at items_[head_ + i]. pop_front is O(1) (bump the head
// index). insert(i) and erase(i) shift whichever side of i is shorter: the
// prefix side moves into (or opens) the gap below head_, the suffix side
// moves as in a plain vector. Juggler's out-of-order queue leans on this:
// late packets fill the oldest holes, at the front of a deep run queue.
//
// The dead prefix is reclaimed when the queue drains, or when an append
// finds the buffer full: it is slid down in place if it is at least as long
// as the live range, else the live range moves to a fresh buffer of twice
// its length. Either way the work is paid for by as many freed slots, so
// every operation but the O(min(i, size - i)) shifts is amortized O(1), and
// capacity never exceeds 2x the high-water live count.

#ifndef JUGGLER_SRC_UTIL_FLAT_FIFO_H_
#define JUGGLER_SRC_UTIL_FLAT_FIFO_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace juggler {

template <typename T>
class FlatFifo {
  // Popped and erased slots below head_ are abandoned, never destroyed.
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  size_t capacity() const { return items_.capacity(); }

  const T& front() const { return items_[head_]; }
  T& front() { return items_[head_]; }
  const T& operator[](size_t i) const { return items_[head_ + i]; }
  T& operator[](size_t i) { return items_[head_ + i]; }

  T* begin() { return items_.data() + head_; }
  T* end() { return items_.data() + items_.size(); }
  const T* begin() const { return items_.data() + head_; }
  const T* end() const { return items_.data() + items_.size(); }

  // By value: MakeRoom may move the element a reference would point at.
  void push_back(T value) {
    MakeRoom();
    items_.push_back(value);
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    MakeRoom();
    return items_.emplace_back(std::forward<Args>(args)...);
  }

  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      clear();
    }
  }

  // Inserts `value` before element i (i == size() appends).
  void insert(size_t i, T value) {
    if (head_ > 0 && i < size() - i) {
      --head_;
      const auto first = items_.begin() + static_cast<ptrdiff_t>(head_);
      std::move(first + 1, first + 1 + static_cast<ptrdiff_t>(i), first);
      items_[head_ + i] = value;
      return;
    }
    MakeRoom();
    items_.insert(items_.begin() + static_cast<ptrdiff_t>(head_ + i), value);
  }

  // Removes element i.
  void erase(size_t i) {
    const auto first = items_.begin() + static_cast<ptrdiff_t>(head_);
    if (i < size() - 1 - i) {
      std::move_backward(first, first + static_cast<ptrdiff_t>(i),
                         first + static_cast<ptrdiff_t>(i) + 1);
      pop_front();
    } else {
      items_.erase(first + static_cast<ptrdiff_t>(i));
      if (empty()) {
        clear();
      }
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

  // Releases the buffer entirely (clear() keeps capacity for reuse).
  void shrink() {
    items_ = std::vector<T>();
    head_ = 0;
  }

 private:
  // Called before growing items_ by one at the back or in the middle.
  void MakeRoom() {
    if (head_ == 0 || items_.size() < items_.capacity()) {
      return;  // spare capacity, or a dense buffer the vector doubles itself
    }
    const auto live = items_.begin() + static_cast<ptrdiff_t>(head_);
    if (head_ >= size()) {
      items_.erase(items_.begin(), live);
    } else {
      std::vector<T> moved;
      moved.reserve(2 * size());
      moved.assign(live, items_.end());
      items_.swap(moved);
    }
    head_ = 0;
  }

  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_UTIL_FLAT_FIFO_H_
