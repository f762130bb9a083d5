// Byte ranges of one TCP connection: the receiver's out-of-order data and
// the sender's record of the bytes SACK blocks have covered.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/check.hpp"
#include "netsim/sack_log.hpp"

namespace wehey::transport {

/// A set of bytes kept as maximal [start, end) ranges in ascending order:
/// no two ranges overlap or touch. A connection holds a few of them (one
/// per hole in its window), so they live in one sorted vector.
class RangeSet {
 public:
  using Range = netsim::SackBlock;
  using const_iterator = std::vector<Range>::const_iterator;
  using const_reverse_iterator = std::vector<Range>::const_reverse_iterator;

  bool empty() const { return ranges_.empty(); }
  const Range& front() const { return ranges_.front(); }
  const_iterator begin() const { return ranges_.begin(); }
  const_iterator end() const { return ranges_.end(); }
  const_reverse_iterator rbegin() const { return ranges_.rbegin(); }
  const_reverse_iterator rend() const { return ranges_.rend(); }

  /// Add the bytes [start, end), start < end. Before it merges them,
  /// calls `gap(from, to)` for each maximal part [from, to) of them the
  /// set did not hold yet, in ascending order.
  template <typename F>
  void insert(std::uint64_t start, std::uint64_t end, F&& gap) {
    WEHEY_EXPECTS(start < end);
    // Ranges before `first` end below `start`: they neither overlap nor
    // touch [start, end). Ranges [first, last) do.
    const auto first = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [start](const Range& r) { return r.end < start; });
    auto last = first;
    std::uint64_t at = start;  // [start, at) is covered or reported
    for (; last != ranges_.end() && last->start <= end; ++last) {
      if (at < last->start) gap(at, last->start);
      at = std::max(at, last->end);
    }
    if (at < end) gap(at, end);

    if (first == last) {
      ranges_.insert(first, Range{start, end});
      return;
    }
    first->start = std::min(first->start, start);
    first->end = std::max(std::prev(last)->end, end);
    ranges_.erase(std::next(first), last);
  }
  void insert(std::uint64_t start, std::uint64_t end) {
    insert(start, end, [](std::uint64_t, std::uint64_t) {});
  }

  /// Remove every byte below `floor`.
  void erase_below(std::uint64_t floor) {
    const auto keep = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [floor](const Range& r) { return r.end <= floor; });
    ranges_.erase(ranges_.begin(), keep);
    if (!ranges_.empty() && ranges_.front().start < floor) {
      ranges_.front().start = floor;
    }
  }

 private:
  std::vector<Range> ranges_;
};

}  // namespace wehey::transport
