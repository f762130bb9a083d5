#include "obs/timeline.hpp"

#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"

namespace wehey::obs {

void Timeline::span(std::string name, std::string category, Time start,
                    Time end, std::int32_t tid, std::string args) {
  TimelineEvent ev;
  ev.kind = TimelineEvent::Kind::Span;
  ev.at = start;
  ev.duration = end > start ? end - start : 0;
  ev.tid = tid;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Timeline::instant(std::string name, std::string category, Time at,
                       std::int32_t tid, std::string args) {
  TimelineEvent ev;
  ev.kind = TimelineEvent::Kind::Instant;
  ev.at = at;
  ev.tid = tid;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Timeline::counter(std::string name, Time at, double value,
                       std::int32_t tid) {
  TimelineEvent ev;
  ev.kind = TimelineEvent::Kind::Counter;
  ev.at = at;
  ev.tid = tid;
  ev.name = std::move(name);
  ev.args = "\"value\": " + json_number(value);
  events_.push_back(std::move(ev));
}

void Timeline::name_track(std::int32_t pid, std::string name) {
  track_names_.emplace_back(pid, std::move(name));
}

void Timeline::absorb(Timeline&& child) {
  const std::int32_t base = pid_count_;
  for (auto& ev : child.events_) {
    ev.pid += base;
    events_.push_back(std::move(ev));
  }
  for (auto& [pid, name] : child.track_names_) {
    track_names_.emplace_back(pid + base, std::move(name));
  }
  pid_count_ += child.pid_count_;
  child.events_.clear();
  child.track_names_.clear();
  child.pid_count_ = 1;
}

namespace {

/// Chrome traces use microsecond timestamps; keep sub-microsecond detail
/// as a fraction (sim time is exact nanoseconds).
std::string ts_us(Time t) {
  if (t % 1000 == 0) return std::to_string(t / 1000);
  return json_number(static_cast<double>(t) / 1000.0);
}

void append_event(std::string& out, const TimelineEvent& ev, bool& first) {
  out += first ? "\n  {" : ",\n  {";
  first = false;
  const char* ph = ev.kind == TimelineEvent::Kind::Span      ? "X"
                   : ev.kind == TimelineEvent::Kind::Counter ? "C"
                                                             : "i";
  out += "\"name\": \"" + json_escape(ev.name) + "\", \"ph\": \"" + ph +
         "\", \"ts\": " + ts_us(ev.at);
  if (ev.kind == TimelineEvent::Kind::Span) {
    out += ", \"dur\": " + ts_us(ev.duration);
  }
  if (ev.kind == TimelineEvent::Kind::Instant) out += ", \"s\": \"t\"";
  if (!ev.category.empty()) {
    out += ", \"cat\": \"" + json_escape(ev.category) + "\"";
  }
  out += ", \"pid\": " + std::to_string(ev.pid) +
         ", \"tid\": " + std::to_string(ev.tid);
  if (!ev.args.empty()) out += ", \"args\": {" + ev.args + "}";
  out += "}";
}

}  // namespace

std::string Timeline::chrome_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  bool first = true;
  for (const auto& [pid, name] : track_names_) {
    out += first ? "\n  {" : ",\n  {";
    first = false;
    out += "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": \"" +
           json_escape(name) + "\"}}";
  }
  for (const TimelineEvent& ev : events_) append_event(out, ev, first);
  out += "\n]}\n";
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace wehey::obs
