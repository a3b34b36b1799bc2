// Growable FIFO ring buffer for hot flit queues.
//
// std::deque allocates and frees block nodes as its window slides, so
// even a bounded producer/consumer queue keeps touching the heap at
// steady state. FifoRing is a power-of-two circular buffer that grows
// geometrically and never shrinks: after warm-up, push/pop are a store,
// a load and two mask operations — no allocation, no block management.
//
// FixedRing is the bounded counterpart for queues whose depth the model
// fixes (credit-controlled buffers): it never grows and owns no memory —
// the owner binds it to slots it places itself, so one component's rings
// can share a single block sized exactly from its configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/assert.hpp"

namespace mango::sim {

template <typename T>
class FifoRing {
 public:
  FifoRing() = default;
  explicit FifoRing(std::size_t initial_capacity) { grow(initial_capacity); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  void push_back(T v) {
    if (size_ == buf_.size()) grow(buf_.size() * 2);
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  T& front() {
    MANGO_ASSERT(size_ != 0, "front() on an empty ring");
    return buf_[head_];
  }
  const T& front() const {
    MANGO_ASSERT(size_ != 0, "front() on an empty ring");
    return buf_[head_];
  }

  void pop_front() {
    MANGO_ASSERT(size_ != 0, "pop_front() on an empty ring");
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow(std::size_t want) {
    std::size_t cap = 8;
    while (cap < want) cap *= 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Fixed-capacity FIFO over caller-owned slots (capacity 1..65535).
/// Bounds are the caller's contract: push only when !full(), read or
/// pop only when !empty().
template <typename T>
class FixedRing {
 public:
  void bind(T* slots, std::size_t capacity) {
    MANGO_ASSERT(capacity >= 1 && capacity <= 0xFFFF,
                 "fixed ring capacity must be 1..65535");
    slots_ = slots;
    head_ = 0;
    size_ = 0;
    capacity_ = static_cast<std::uint16_t>(capacity);
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  const T& front() const { return slots_[head_]; }

  void push_back(const T& v) {
    unsigned tail = static_cast<unsigned>(head_) + size_;
    if (tail >= capacity_) tail -= capacity_;
    slots_[tail] = v;
    ++size_;
  }

  T pop_front() {
    T v = slots_[head_];
    if (++head_ == capacity_) head_ = 0;
    --size_;
    return v;
  }

 private:
  T* slots_ = nullptr;
  std::uint16_t head_ = 0;
  std::uint16_t size_ = 0;
  std::uint16_t capacity_ = 0;
};

}  // namespace mango::sim
