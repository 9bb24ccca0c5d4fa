// Fixed-capacity power-of-two ring buffer: the single-threaded bounded
// queue behind every DES ring (io_uring SQ/CQ, QDMA H2C/C2H). Its head/tail
// indices and power-of-two mask are the shape of the io_uring shared rings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"

namespace dk {

constexpr bool is_power_of_two(std::size_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

constexpr std::size_t next_power_of_two(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Single-threaded bounded FIFO over a power-of-two array.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : mask_(next_power_of_two(capacity) - 1),
        slots_(mask_ + 1) {}

  std::size_t capacity() const { return mask_ + 1; }
  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity(); }

  bool push(T value) {
    if (full()) return false;
    slots_[tail_ & mask_] = std::move(value);
    ++tail_;
    return true;
  }

  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T v = std::move(slots_[head_ & mask_]);
    ++head_;
    return v;
  }

  /// Peek without consuming; undefined when empty.
  const T& front() const {
    DK_DCHECK(!empty()) << "front() on empty ring";
    return slots_[head_ & mask_];
  }

 private:
  std::size_t mask_;
  std::vector<T> slots_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

}  // namespace dk
