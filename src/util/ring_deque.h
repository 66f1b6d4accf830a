// cmtos/util/ring_deque.h
//
// A growable circular deque that keeps its capacity.  std::deque allocates
// a chunk every few elements as a FIFO slides forward (and a map plus a
// chunk on construction, even when never used); a RingDeque allocates only
// when it grows past its high-water mark, so a queue in steady state — a
// link band, a connection's staged fragments — runs allocation-free.  The
// surface is the subset of std::deque those queues use.  Capacity is a
// power of two; elements live in raw storage and are constructed on push
// and destroyed on pop, so a popped slot pins nothing.

#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "util/contract.h"

namespace cmtos {

template <typename T>
class RingDeque {
 public:
  RingDeque() noexcept = default;
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;
  ~RingDeque() {
    clear();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, cap_);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return slots_[wrap(head_ + i)]; }
  T& front() {
    CMTOS_DCHECK(!empty());
    return slots_[head_];
  }
  const T& front() const {
    CMTOS_DCHECK(!empty());
    return slots_[head_];
  }
  T& back() {
    CMTOS_DCHECK(!empty());
    return (*this)[size_ - 1];
  }

  void push_back(T v) {
    if (size_ == cap_) grow();
    std::construct_at(slots_ + wrap(head_ + size_), std::move(v));
    ++size_;
  }
  void push_front(T v) {
    if (size_ == cap_) grow();
    head_ = wrap(head_ + cap_ - 1);
    std::construct_at(slots_ + head_, std::move(v));
    ++size_;
  }
  void pop_front() {
    CMTOS_DCHECK(!empty());
    std::destroy_at(slots_ + head_);
    head_ = wrap(head_ + 1);
    --size_;
  }
  void pop_back() {
    CMTOS_DCHECK(!empty());
    std::destroy_at(&back());
    --size_;
  }
  /// Destroys every element; the capacity stays.
  void clear() noexcept {
    while (size_ > 0) pop_back();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t wrap(std::size_t i) const noexcept { return i & (cap_ - 1); }

  void grow() {
    const std::size_t cap = std::max(kMinCapacity, cap_ * 2);
    T* slots = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      std::construct_at(slots + i, std::move(from));
      std::destroy_at(&from);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, cap_);
    slots_ = slots;
    cap_ = cap;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t cap_ = 0;   // 0 or a power of two
  std::size_t head_ = 0;  // index of the front element
  std::size_t size_ = 0;
};

}  // namespace cmtos
