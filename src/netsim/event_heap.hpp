// The simulator's event queue: an owned binary min-heap over (time, seq)
// with the event actions stored out-of-line in a recycled slot pool.
//
// Three properties std::priority_queue could not give us:
//
//  * zero-move event construction — push() is a template that emplaces the
//    caller's callable directly into its pool slot, so the (often
//    Packet-carrying, 88-byte) capture is copied exactly once, ever;
//  * in-place dispatch — run_top() invokes the action where it sits and
//    destroys it afterwards, instead of moving it out of a const top()
//    through a const_cast as the old design did;
//  * cheap sift operations — heap nodes are 24-byte PODs referencing a slot
//    index, so reordering never touches the action payloads.
//
// Slots live in fixed-size chunks that are never reallocated, so an action
// stays at a stable address even when events it schedules during its own
// execution grow the pool. Freed slots are recycled, so a steady-state
// simulation stops allocating entirely once the pool has grown to the
// high-water mark.
//
// Ordering: earliest `at` first; ties broken by ascending insertion
// sequence number, so same-time events fire in the order they were
// scheduled (the determinism contract the whole simulator relies on).
// An event's key is the pair (at, seq). push() and rearm_current() draw
// seq from one counter; reserve_seq(n) draws n numbers from it without
// pushing anything, exactly as n push() calls would, and push_keyed() /
// rearm_current_keyed() later place one action at a reserved key. With
// them a component keeps a single pending event instead of one per item:
// the event visits each item's key in turn, so every firing gets the key
// its own push() would have had, every other event keeps its key, and
// dispatch order is unchanged. Each reserved seq is used at most once,
// and a keyed event must lie after the executing one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "netsim/inplace_action.hpp"
#include "obs/runtime.hpp"

namespace wehey::netsim {

class EventHeap {
 public:
  using Action = InplaceAction;

  bool empty() const { return nodes_.empty(); }
  std::size_t size() const { return nodes_.size(); }

  /// Scheduled time of the earliest event. Heap must not be empty.
  Time top_time() const {
    WEHEY_EXPECTS(!nodes_.empty());
    return nodes_[0].at;
  }

  /// Schedule `f` at time `at`, constructing it directly in its pool slot.
  template <typename F>
  void push(Time at, F&& f) {
    WEHEY_EXPECTS(next_seq_ < kSeqLimit);
    push_node(at, next_seq_++, std::forward<F>(f));
  }

  /// Use up `n` sequence numbers, exactly as `n` push() calls would, and
  /// return the first; push_keyed() and rearm_current_keyed() take them.
  std::uint64_t reserve_seq(std::uint64_t n) {
    WEHEY_EXPECTS(n <= kSeqLimit - next_seq_);
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedule `f` at the key (at, seq), where `seq` came from
  /// reserve_seq() and was not used before. From within an executing
  /// action the key must lie after the executing event's.
  template <typename F>
  void push_keyed(Time at, std::uint64_t seq, F&& f) {
    WEHEY_EXPECTS(seq < next_seq_);
    WEHEY_EXPECTS(executing_ == kNoSlot || after_top(at, seq));
    push_node(at, seq, std::forward<F>(f));
  }

  /// Run the earliest event's action in place, then retire (or re-arm) its
  /// node. The action runs while its node still sits at the root: anything
  /// it pushes has `at >= now` and a larger seq, so it can never displace
  /// that root, and deferring the removal lets a rearm_current() turn into
  /// a replace-top — the re-armed key is near-minimal, so it sinks a level
  /// or two instead of paying a full pop-sift plus push-sift. The action
  /// may push new events (its own slot address is stable), but must not
  /// call clear() on this heap. Precondition: the heap is non-empty and no
  /// other event is currently executing.
  void run_top() {
    const std::uint32_t slot = nodes_[0].slot();
    executing_ = slot;
    rearm_at_ = kNotRearmed;
    Action& action = slot_ref(slot);
    action();
    executing_ = kNoSlot;
    if (rearm_at_ == kNotRearmed) {
      action.reset();
      free_slots_.push_back(slot);
      const Node back = nodes_.back();
      nodes_.pop_back();
      if (!nodes_.empty()) sift_down_root(back);
    } else {
      std::uint64_t seq = rearm_seq_;
      if (seq == kFreshSeq) {
        WEHEY_EXPECTS(next_seq_ < kSeqLimit);
        seq = next_seq_++;
      }
      replace_top(Node{rearm_at_, (seq << kSlotBits) | slot});
    }
  }

  /// From within an executing action: re-arm that same action — state
  /// intact, nothing copied or destroyed — to fire again at `at`. Takes
  /// effect when the action returns (last call wins), and the re-armed
  /// firing gets a fresh sequence number then, so relative to same-time
  /// events it orders after everything the action itself scheduled.
  void rearm_current(Time at) {
    WEHEY_EXPECTS(executing_ != kNoSlot && at >= 0);
    rearm_at_ = at;
    rearm_seq_ = kFreshSeq;
  }

  /// rearm_current() at the key (at, seq), where `seq` came from
  /// reserve_seq() and was not used before; takes no new sequence number.
  /// The key must lie after the executing event's: an action can move
  /// itself later, never back in time.
  void rearm_current_keyed(Time at, std::uint64_t seq) {
    WEHEY_EXPECTS(executing_ != kNoSlot && seq < next_seq_);
    WEHEY_EXPECTS(after_top(at, seq));
    rearm_at_ = at;
    rearm_seq_ = seq;
  }

  /// Drain events in timestamp order, advancing `now` to each event's time
  /// before it fires. Stops when the queue is empty, the next event lies
  /// strictly after `until` (pass until < 0 to run to exhaustion), or
  /// `max_events` events ran (the supervisor's per-trial budget, see
  /// src/parallel/supervisor.hpp); returns how many ran. Lives here rather
  /// than in Simulator so the whole dispatch loop — peek, pop, invoke,
  /// recycle — inlines into a single frame.
  std::uint64_t run_until(Time until, Time& now, std::uint64_t max_events) {
    std::uint64_t dispatched = 0;
    while (dispatched < max_events && !nodes_.empty()) {
      const Time at = nodes_[0].at;
      if (until >= 0 && at > until) break;
      now = at;
      run_top();
      ++dispatched;
    }
    return dispatched;
  }

  /// Drop every pending event and release the backing storage (swap-with-
  /// empty; no per-event heap pops — pending actions are destroyed by a
  /// straight walk over the node array). Must not be called from within an
  /// executing event: the running action lives in the pool being freed.
  void clear() {
    WEHEY_EXPECTS(executing_ == kNoSlot);
    for (const Node& node : nodes_) slot_ref(node.slot()).reset();
    std::vector<Node>().swap(nodes_);
    std::vector<std::uint32_t>().swap(free_slots_);
    std::vector<std::unique_ptr<Chunk>>().swap(chunks_);
    slot_count_ = 0;
  }

 private:
  /// 24 bits of slot index + 40 bits of insertion sequence packed into one
  /// word: a heap node is then 16 aligned bytes, so nodes never straddle
  /// cache lines and sift moves are two machine words. Comparing the packed
  /// word compares seq (slot bits only break ties between identical seqs,
  /// which cannot happen). 2^40 events per simulator and 2^24 simultaneously
  /// pending events are both orders of magnitude beyond any replay here;
  /// push() checks the former, acquire_slot() the latter.
  struct Node {
    Time at;
    std::uint64_t seq_slot;
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kSlotLimit - 1));
    }
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotLimit = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;

  /// 64 128-byte actions (8 KiB) per chunk: big enough to amortize
  /// allocation, small enough that an idle simulator is not holding
  /// megabytes.
  static constexpr std::size_t kChunkShift = 6;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  using Chunk = std::array<Action, kChunkSize>;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr Time kNotRearmed = -1;
  static constexpr std::uint64_t kFreshSeq = UINT64_MAX;

  static bool before(const Node& a, const Node& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq_slot < b.seq_slot;
  }

  /// The key (at, seq) orders after the root's (while an action executes,
  /// the root is that action's node).
  bool after_top(Time at, std::uint64_t seq) const {
    const Node& top = nodes_[0];
    return at != top.at ? at > top.at : seq > (top.seq_slot >> kSlotBits);
  }

  template <typename F>
  void push_node(Time at, std::uint64_t seq, F&& f) {
    const std::uint32_t slot = acquire_slot();
    slot_ref(slot).emplace(std::forward<F>(f));
    nodes_.push_back(Node{at, (seq << kSlotBits) | slot});
    sift_up(nodes_.size() - 1);
  }

  Action& slot_ref(std::uint32_t slot) {
    return (*chunks_[slot >> kChunkShift])[slot & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    WEHEY_EXPECTS(slot_count_ < kSlotLimit);
    if (slot_count_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<Chunk>());
      // Counting-allocator hook: pool growth is the simulator's only
      // steady-state allocation, so this is cheap enough to call inline.
      if (obs::runtime::enabled()) {
        obs::runtime::note_event_heap_chunk(sizeof(Chunk));
      }
    }
    return static_cast<std::uint32_t>(slot_count_++);
  }

  void sift_up(std::size_t i) {
    const Node node = nodes_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(node, nodes_[parent])) break;
      nodes_[i] = nodes_[parent];
      i = parent;
    }
    nodes_[i] = node;
  }

  /// Place `node` (the detached back element) into the hole left at the
  /// root, using the bottom-up strategy of libstdc++'s pop_heap: descend
  /// the min-child path to a leaf with ONE sibling comparison per level,
  /// then sift the node up from the leaf. The node came from the bottom of
  /// the heap, so it almost always belongs near a leaf and the upward phase
  /// terminates immediately — nearly halving the (mispredict-prone)
  /// comparisons of the textbook two-per-level descent.
  void sift_down_root(Node node) {
    const std::size_t n = nodes_.size();
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < n) {
      if (child + 1 < n && before(nodes_[child + 1], nodes_[child])) ++child;
      nodes_[hole] = nodes_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(node, nodes_[parent])) break;
      nodes_[hole] = nodes_[parent];
      hole = parent;
    }
    nodes_[hole] = node;
  }

  /// Overwrite the root with `node` and restore the heap with a standard
  /// two-comparison descent. Used for re-armed events, whose key is close
  /// to the minimum and therefore sinks at most a level or two — the
  /// bottom-up strategy would be counterproductive here.
  void replace_top(Node node) {
    const std::size_t n = nodes_.size();
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && before(nodes_[child + 1], nodes_[child])) ++child;
      if (!before(nodes_[child], node)) break;
      nodes_[hole] = nodes_[child];
      hole = child;
    }
    nodes_[hole] = node;
  }

  std::uint64_t next_seq_ = 0;
  std::uint32_t executing_ = kNoSlot;  ///< slot whose action is on the stack
  Time rearm_at_ = kNotRearmed;        ///< pending rearm_current() request
  std::uint64_t rearm_seq_ = kFreshSeq;  ///< its reserved seq, if keyed
  std::size_t slot_count_ = 0;         ///< slots handed out so far
  std::vector<Node> nodes_;            ///< binary heap of (at, seq, slot)
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< stable action storage
  std::vector<std::uint32_t> free_slots_;       ///< recycled slot indices
};

}  // namespace wehey::netsim
