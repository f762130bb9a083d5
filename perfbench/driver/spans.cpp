#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanLog::begin(const char* name, int parent) {
  Span s;
  s.name = name;
  s.run = run_;
  s.parent = parent;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  for (const auto& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

bool write_trace_file(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
  for (const auto* log : logs) {
    for (const auto& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t track = 0; track < logs.size(); ++track) {
    const auto& spans = logs[track]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Names and run ids are driver-chosen identifiers (no quotes or
      // control characters), so they need no escaping.
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"run\": \"%s\", \"id\": %zu, \"parent\": %d}}",
                   first ? "" : ",\n", s.name.c_str(), track,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   s.run.c_str(), i, s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
