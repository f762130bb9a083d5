// Packet-level event tracing, in the spirit of ns-3's ascii traces: attach
// a tracer to links and it records transmissions and drops with
// timestamps, flows and sizes — for debugging simulations and for tests
// that need to assert on wire-level behaviour.
#pragma once

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "netsim/link.hpp"
#include "netsim/queue.hpp"

namespace wehey::netsim {

enum class TraceEventKind { Transmit, Drop };

struct TraceEvent {
  Time at = 0;
  TraceEventKind kind = TraceEventKind::Transmit;
  std::string point;  ///< the attachment's name, e.g. "l_c"
  FlowId flow = 0;
  std::uint32_t size = 0;
  std::uint8_t dscp = 0;
  std::uint64_t seq = 0;
};

class PacketTracer {
 public:
  /// Observe a link's transmissions and its queue disc's drops under the
  /// name `point`. Replaces any previously installed listeners on them.
  /// The link must outlive the tracer's last read.
  void attach(Link& link, const std::string& point);

  const std::vector<TraceEvent>& events() const {
    sync();
    return events_;
  }
  std::size_t size() const { return events().size(); }
  void clear() {
    sync();
    events_.clear();
  }

  /// Cap memory for long simulations (0 = unbounded). Once full, new
  /// events are counted but not stored.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::uint64_t suppressed() const {
    sync();
    return suppressed_;
  }

  /// Events for one flow only.
  std::vector<TraceEvent> flow_events(FlowId flow) const;
  /// Per-point drop counts.
  std::unordered_map<std::string, std::uint64_t> drops_by_point() const;

  /// Write an ns-3-style ascii trace ("t <kind> <point> flow=... ...").
  void dump(std::FILE* out) const;

 private:
  void record(TraceEvent ev);
  /// A FIFO link reports a transmission when it settles (link.hpp): bring
  /// every attached link up to now before reading.
  void sync() const {
    for (const Link* link : links_) link->settle();
  }

  std::vector<const Link*> links_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace wehey::netsim
