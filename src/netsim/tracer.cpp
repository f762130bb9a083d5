#include "netsim/tracer.hpp"

namespace wehey::netsim {

void PacketTracer::attach(Link& link, const std::string& point) {
  links_.push_back(&link);
  link.set_tx_listener([this, point](const Packet& pkt, Time at) {
    record({at, TraceEventKind::Transmit, point, pkt.flow, pkt.size,
            pkt.dscp, pkt.seq});
  });
  link.disc().set_drop_listener([this, point](const Packet& pkt, Time at) {
    record({at, TraceEventKind::Drop, point, pkt.flow, pkt.size, pkt.dscp,
            pkt.seq});
  });
}

void PacketTracer::record(TraceEvent ev) {
  if (capacity_ > 0 && events_.size() >= capacity_) {
    ++suppressed_;
    return;
  }
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> PacketTracer::flow_events(FlowId flow) const {
  std::vector<TraceEvent> out;
  for (const auto& ev : events()) {
    if (ev.flow == flow) out.push_back(ev);
  }
  return out;
}

std::unordered_map<std::string, std::uint64_t>
PacketTracer::drops_by_point() const {
  std::unordered_map<std::string, std::uint64_t> out;
  for (const auto& ev : events()) {
    if (ev.kind == TraceEventKind::Drop) ++out[ev.point];
  }
  return out;
}

void PacketTracer::dump(std::FILE* out) const {
  for (const auto& ev : events()) {
    std::fprintf(out, "%.9f %s %s flow=%u dscp=%u seq=%llu size=%u\n",
                 to_seconds(ev.at),
                 ev.kind == TraceEventKind::Drop ? "d" : "t",
                 ev.point.c_str(), ev.flow, ev.dscp,
                 static_cast<unsigned long long>(ev.seq), ev.size);
  }
  if (suppressed_ > 0) {
    std::fprintf(out, "# %llu events suppressed (capacity %zu)\n",
                 static_cast<unsigned long long>(suppressed_), capacity_);
  }
}

}  // namespace wehey::netsim
