// A growable FIFO over one contiguous buffer: the queueing discs' packet
// queues, a FIFO link's accepted packets, the receivers' SACK logs and the
// TCP sender's scoreboard.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace wehey::netsim {

/// FIFO backed by a power-of-two circular buffer with random access from
/// the front. Popped slots are reused by later pushes, so a ring at steady
/// state never allocates; it grows by doubling when full. Elements stay
/// in their slots after pop_front() until overwritten, so T should be
/// cheap to keep (plain data).
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  /// The `i`-th element from the front.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask()];
  }
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  /// Drop the `n` front elements (n <= size()).
  void pop_front(std::size_t n = 1) {
    head_ = (head_ + n) & mask();
    size_ -= n;
  }

  /// Empty the ring and give its buffer back to the allocator.
  void release() {
    std::vector<T>().swap(buf_);
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t mask() const { return buf_.size() - 1; }

  void grow() {
    std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;  ///< slot of the front element
  std::size_t size_ = 0;
};

}  // namespace wehey::netsim
