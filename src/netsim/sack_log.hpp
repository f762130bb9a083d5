// Receiver-owned storage for the selective-ACK blocks of ACKs in flight.
//
// A SACK snapshot can hold up to kMaxSackBlocks 16-byte blocks, but only
// ACKs carry one. Stored inline it would make every Packet — data packets
// included — 256 bytes larger, copied into every event slot, queue entry
// and receive() hop. Instead, the receiver appends each ACK's blocks to its
// SackLog and the ACK carries {log, first index, count}; the sender reads
// them on arrival and then releases every block up to and including that
// ACK's.
//
// Releasing the prefix is sound because no network element reorders the
// packets of one flow: when ACK n reaches the sender, every earlier ACK of
// the flow was either consumed already or dropped on the way, so nothing
// will ask for those blocks again. at() checks this, so an element that
// ever reorders ACKs fails loudly instead of reading recycled blocks.
//
// The log must outlive every ACK the sender reads. Receivers and their
// senders are created and destroyed together, and an ACK destroyed unread
// (a queue drop, or a simulator torn down with events pending) never
// touches the log — its blocks are released by the next ACK the sender
// reads.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "netsim/ring.hpp"

namespace wehey::netsim {

/// A SACK block: received bytes in [start, end). start == end means unused.
struct SackBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool empty() const { return start == end; }
};

// A real TCP option carries at most 3-4 SACK blocks and relies on block
// rotation across ACKs to cover all holes; our receiver reports a fixed
// snapshot instead, so it needs more blocks to convey the same
// information. 16 keeps retransmission behaviour close to a
// rotating-3-block implementation without simulating the rotation.
inline constexpr int kMaxSackBlocks = 16;

/// FIFO of SACK blocks addressed by a running 32-bit index, on a Ring that
/// is reused once the log reaches its high-water mark. Indices wrap modulo
/// 2^32; only the distance from the oldest live block matters, and at most
/// a few round trips of ACKs are ever live.
class SackLog {
 public:
  /// Index the next appended block receives.
  std::uint32_t next_index() const {
    return base_ + static_cast<std::uint32_t>(blocks_.size());
  }

  void append(SackBlock block) { blocks_.push_back(block); }

  /// The block at `index`, which must not have been released yet.
  const SackBlock& at(std::uint32_t index) const {
    // Unsigned distance: an index below the base (an ACK arriving after a
    // later one was consumed) wraps to a huge offset and fails here.
    const std::uint32_t offset = index - base_;
    WEHEY_EXPECTS(offset < blocks_.size());
    return blocks_[offset];
  }

  /// The sender side of one ACK: visit its `count` blocks starting at
  /// `first` in the order they were appended, then release them together
  /// with every older block.
  template <typename F>
  void consume(std::uint32_t first, std::uint32_t count, F&& visit) {
    for (std::uint32_t i = 0; i < count; ++i) visit(at(first + i));
    release_before(first + count);
  }

  /// Drop every block whose index is below `end`.
  void release_before(std::uint32_t end) {
    const std::uint32_t n = end - base_;
    WEHEY_EXPECTS(n <= blocks_.size());
    blocks_.pop_front(n);
    base_ = end;
  }

  /// Blocks appended and not yet released.
  std::size_t live() const { return blocks_.size(); }

 private:
  Ring<SackBlock> blocks_;
  std::uint32_t base_ = 0;  ///< index of the oldest live block
};

}  // namespace wehey::netsim
