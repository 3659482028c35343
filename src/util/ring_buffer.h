// Fixed-capacity-reusing FIFO ring.
//
// std::deque allocates and frees ~512-byte blocks as elements migrate
// across block boundaries, which puts one allocation every few requests on
// the simulator's steady-state serve path (VM waiting lines). RingBuffer
// grows geometrically like vector but never releases capacity, so after
// warm-up a push/pop cycle touches no allocator at all. Like vector, it
// constructs a slot only when it first fills it, so the untouched half of a
// freshly doubled ring costs no resident memory.
//
// Supports the three waiting-line operations the VM needs: push_back
// (FIFO), pop_front, and insert-at-index (non-preemptive priority order,
// the Section VII extension). Indexing is front-relative: [0] is the next
// element to pop.
#pragma once

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cloudprov {

template <typename T>
class RingBuffer {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t index) {
    return storage_[wrap(head_ + index)];
  }
  const T& operator[](std::size_t index) const {
    return storage_[wrap(head_ + index)];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    const std::size_t slot = wrap(head_ + size_);
    if (size_ == capacity_ || slot == storage_.size()) {
      push_back_slow(std::move(value));
      return;
    }
    storage_[slot] = std::move(value);
    ++size_;
  }

  /// Allocates room for at least `count` elements (rounded up to a power of
  /// two) without touching it: slots are constructed as they first fill.
  void reserve(std::size_t count) {
    if (count > capacity_) grow(std::bit_ceil(count));
  }

  void pop_front() {
    ensure(size_ > 0, "RingBuffer::pop_front on empty ring");
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Inserts before front-relative position `index` (0 = new front,
  /// size() = push_back). Shifts the tail right; O(size - index).
  void insert(std::size_t index, T value) {
    ensure_arg(index <= size_, "RingBuffer::insert: index out of range");
    push_back(std::move(value));
    T inserted = std::move(back());
    for (std::size_t i = size_ - 1; i > index; --i) {
      (*this)[i] = std::move((*this)[i - 1]);
    }
    (*this)[index] = std::move(inserted);
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t wrap(std::size_t index) const {
    // Capacity is a power of two, so wrapping is a mask.
    return index & (capacity_ - 1);
  }

  /// push_back() into a full ring, which grows first, or into a slot the
  /// ring has not filled yet: slots below storage_.size() hold elements,
  /// and the first lap around a freshly grown ring appends to the reserved
  /// capacity. Kept out of line so the common push_back inlines.
  [[gnu::noinline]] void push_back_slow(T value) {
    if (size_ == capacity_) grow(capacity_ == 0 ? 8 : capacity_ * 2);
    const std::size_t slot = wrap(head_ + size_);
    if (slot == storage_.size()) {
      storage_.push_back(std::move(value));
    } else {
      storage_[slot] = std::move(value);
    }
    ++size_;
  }

  void grow(std::size_t capacity) {
    std::vector<T> grown;
    grown.reserve(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      grown.push_back(std::move((*this)[i]));
    }
    storage_ = std::move(grown);
    capacity_ = capacity;
    head_ = 0;
  }

  std::vector<T> storage_;
  std::size_t capacity_ = 0;  ///< slots; a power of two once grown
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cloudprov
