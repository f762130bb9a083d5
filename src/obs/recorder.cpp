#include "obs/recorder.hpp"

namespace wehey::obs {

namespace {

thread_local Recorder* t_current = nullptr;

}  // namespace

void Recorder::absorb(Recorder&& c, const std::string& track) {
  if (metrics_on_) metrics_.merge(c.metrics_);
  if (trace_on_) {
    if (!track.empty() && !c.timeline_.empty()) {
      c.timeline_.name_track(0, track);
    }
    timeline_.absorb(std::move(c.timeline_));
  }
}

Recorder* Recorder::current() {
  if constexpr (!kObsCompiled) return nullptr;
  return t_current;
}

ScopedRecorder::ScopedRecorder(Recorder* r) : prev_(t_current) {
  if constexpr (kObsCompiled) t_current = r;
}

ScopedRecorder::~ScopedRecorder() {
  if constexpr (kObsCompiled) t_current = prev_;
}

}  // namespace wehey::obs
