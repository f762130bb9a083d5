#include "obs/sweep.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/inspect.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != 0 && std::string(v) != "0";
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

std::unique_ptr<Recorder> recorder_from_env(const std::string& trace_path) {
  if constexpr (!kObsCompiled) return nullptr;
  const bool trace_on = !trace_path.empty();
  if (!trace_on && !env_flag("WEHEY_REPORT") &&
      !env_flag("WEHEY_REPORT_DIR")) {
    return nullptr;
  }
  return std::make_unique<Recorder>(/*metrics_on=*/true, trace_on);
}

/// Write one artifact; only a failure is reported here.
bool write_artifact(const char* what, const std::string& path,
                    const std::string& json) {
  if (write_report_file(path, json)) return true;
  std::fprintf(stderr, "%s: FAILED to write %s\n", what, path.c_str());
  return false;
}

/// The Chrome JSON first, so a trace that failed to write leaves no CSV.
/// Two statements, so the JSON text is freed before the CSV is rendered.
bool write_trace(const Timeline& timeline, const std::string& path) {
  if (!write_report_file(path, timeline.chrome_json())) return false;
  return write_report_file(trace_csv_path(path), timeline.csv());
}

}  // namespace

ObservedSweep::ObservedSweep(std::string name)
    : name_(std::move(name)),
      trace_path_(env_or_empty("WEHEY_TRACE")),
      recorder_(recorder_from_env(trace_path_)),
      bind_(recorder_.get()),
      run_dir_(env_or_empty("WEHEY_REPORT_DIR")),
      aggregator_(name_),
      meter_(name_) {
  report_.run = name_;
  runtime::enable_from_env();
  const std::string journal = env_or_empty("WEHEY_CHECKPOINT");
  std::string error;
  if (!journal.empty() && !checkpoint(journal, /*resume=*/true, &error)) {
    std::fprintf(stderr, "checkpoint: %s (not journaling)\n", error.c_str());
  }
}

bool ObservedSweep::checkpoint(const std::string& path, bool resume,
                               std::string* error) {
  CheckpointJournal journal;
  if (resume && !CheckpointJournal::load(path, journal, error)) return false;
  journaled_.clear();
  if (!journal_.open(path, name_)) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  for (const CheckpointEntry& entry : journal.entries()) {
    JournaledRun run{entry.report_json, {}, {}};
    JsonValue doc;
    std::string why;
    if (!json_parse(run.json, doc, &why) ||
        !RunReport::from_json(doc, run.report, run.metrics, &why)) {
      std::fprintf(stderr, "checkpoint: %s executes again: %s\n",
                   entry.run.c_str(), why.c_str());
      continue;
    }
    journaled_.emplace(entry.run, std::move(run));
  }
  if (!journaled_.empty()) {
    std::fprintf(stderr, "checkpoint: resuming from %s (%zu completed runs)\n",
                 path.c_str(), journaled_.size());
  }
  return true;
}

std::map<std::string, double> ObservedSweep::absorb(
    const std::string& run_id, const RunReport& live,
    const MetricsRegistry* live_metrics) {
  const std::uint64_t index = next_index_++;
  const auto journaled = journaled_.find(run_id);
  const bool resumed = journaled != journaled_.end();
  const RunReport& run = resumed ? journaled->second.report : live;
  const MetricsRegistry* metrics =
      resumed ? &journaled->second.metrics : live_metrics;
  aggregator_.add_run(run, metrics);
  meter_.note_run(run.verdict, run.decision.has_margin, run.decision.margin,
                  resumed);
  for (const auto& [kind, count] : run.injection) {
    report_.injection[kind] += count;
  }
  // A journaled run keeps its journaled bytes. A live one is serialized
  // only when a journal line or a per-run file needs the bytes.
  std::string json = resumed ? journaled->second.json : std::string();
  if (!resumed && journal_.is_open()) {
    json = run.to_json(metrics);
    journal_.append({.run = run_id,
                     .cell = run.cell,
                     .seed = run.seed,
                     .index = index,
                     .report_json = json});
  }
  if (!run_dir_.empty()) {
    if (json.empty()) json = run.to_json(metrics);
    write_artifact("report", run_dir_ + "/" + run_id + ".report.json", json);
  }
  return run.values;
}

bool ObservedSweep::finish() {
  if (finished_) return true;
  finished_ = true;
  bool ok = true;
  if (recorder_ != nullptr && !trace_path_.empty()) {
    if (write_trace(recorder_->timeline(), trace_path_)) {
      std::fprintf(stderr, "trace: %s (+ %s)\n", trace_path_.c_str(),
                   trace_csv_path(trace_path_).c_str());
    } else {
      std::fprintf(stderr, "trace: FAILED to write %s\n", trace_path_.c_str());
      ok = false;
    }
  }
  const MetricsRegistry* metrics =
      recorder_ != nullptr ? &recorder_->metrics() : nullptr;
  if (!report_.run.empty()) {
    // Profile the own report if nothing filled it: from the finalized
    // timeline when tracing (every (pid, tid) pair is its own track),
    // else from the recorded stages, one track each.
    if (report_.profile.empty()) {
      if (recorder_ != nullptr && recorder_->trace_on()) {
        report_.profile = profile_from_spans(
            profile_spans_from_timeline(recorder_->timeline()));
      } else if (!report_.stages.empty()) {
        std::vector<ProfileSpan> spans;
        for (std::size_t i = 0; i < report_.stages.size(); ++i) {
          const auto& s = report_.stages[i];
          spans.push_back(
              {static_cast<std::int64_t>(i), s.name, s.sim_start, s.sim_end});
        }
        report_.profile = profile_from_spans(std::move(spans));
      }
    }
    const std::string path = report_path_from_env(report_.run);
    if (!path.empty()) {
      if (write_artifact("report", path, report_.to_json(metrics))) {
        std::fprintf(stderr, "report: %s\n", path.c_str());
      } else {
        ok = false;
      }
    }
  }
  // sweep_to() always gets its sweep; WEHEY_REPORT_DIR only a sweep of
  // something.
  const std::string path = sweep_out_.value_or(sweep_path_from_env(name_));
  if (sweep_out_.has_value() || (!path.empty() && aggregator_.runs() > 0)) {
    const std::string json = aggregator_.to_json();
    if (path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else if (write_artifact("sweep report", path, json)) {
      std::fprintf(stderr, "sweep report: %s (%zu runs)\n", path.c_str(),
                   aggregator_.runs());
    } else {
      ok = false;
    }
  }
  meter_.finish();
  return runtime::write_runtime_report_from_env(name_) && ok;
}

std::string trace_csv_path(const std::string& trace_path) {
  const std::string suffix = ".json";
  if (trace_path.size() > suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return trace_path.substr(0, trace_path.size() - suffix.size()) + ".csv";
  }
  return trace_path + ".csv";
}

}  // namespace wehey::obs
