// Simulated packets and the sink interface network elements implement.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "netsim/ring.hpp"

namespace wehey::netsim {

using FlowId = std::uint32_t;

/// DSCP class used by the differentiation classifier (Appendix C.1):
/// packets with dscp=1 are directed to the token-bucket filter, dscp=0
/// traffic bypasses it.
inline constexpr std::uint8_t kDscpDefault = 0;
inline constexpr std::uint8_t kDscpDifferentiated = 1;

enum class PacketKind : std::uint8_t { Data, Ack };

class SackLog;

/// Every packet event carries one of these by value, so the layout keeps it
/// small: 8-byte fields first, then 4-byte, then 1-byte, with no padding
/// holes (72 bytes). SACK blocks live in the receiver's SackLog, not here.
struct Packet {
  std::uint64_t id = 0;       ///< globally unique, for tracing
  // Transport metadata (interpreted by the endpoints only).
  std::uint64_t seq = 0;      ///< TCP: first payload byte; UDP: packet no.
  std::uint64_t ack = 0;      ///< TCP cumulative ACK (next expected byte)
  Time sent_at = 0;           ///< stamped by the sender (for RTT samples)
  /// Stamped by the queueing disc that accepted the packet; the dequeue
  /// side observes (now - enqueued_at) as the queue-residency histogram.
  Time enqueued_at = 0;
  /// ACKs only: the receiver's log holding this ACK's selective-ACK blocks,
  /// indices [sack_first, sack_first + sack_count). Null on data packets.
  SackLog* sack_log = nullptr;

  FlowId flow = 0;
  /// The key a *per-flow* rate-limiter classifies on (normally the flow's
  /// 5-tuple, i.e. == flow). WeHeY's §7 countermeasure crafts the two
  /// simultaneous replays so they carry the same key and land in the same
  /// per-flow policer. 0 means "use `flow`".
  FlowId policer_key = 0;
  std::uint32_t size = 0;     ///< wire size in bytes (headers included)
  std::uint32_t payload = 0;  ///< payload bytes carried
  std::uint32_t sack_first = 0;

  std::uint8_t sack_count = 0;
  PacketKind kind = PacketKind::Data;
  std::uint8_t dscp = kDscpDefault;
  bool retransmit = false;    ///< TCP: this is a retransmission
};

/// Anything that can accept a packet: links, rate-limiters, endpoints.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet pkt) = 0;
};

/// Monotonic packet-id source (one per simulation).
class PacketIdSource {
 public:
  std::uint64_t next() { return next_++; }
  /// Draw `n` ids at once, as `n` next() calls would; returns the first.
  std::uint64_t reserve(std::uint64_t n) {
    const std::uint64_t first = next_;
    next_ += n;
    return first;
  }

 private:
  std::uint64_t next_ = 1;
};

/// The queueing disciplines' packet FIFO: dequeued slots are reused by
/// later enqueues, so a disc at steady state never allocates.
using PacketRing = Ring<Packet>;

}  // namespace wehey::netsim
