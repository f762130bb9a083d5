#include "obs/sweep.hpp"

#include <cstdio>
#include <utility>

#include "obs/inspect.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

namespace {

/// The run-wide recorder: on when a trace or a report is written.
std::unique_ptr<Recorder> recorder_from_env(const std::string& trace_path,
                                            const std::string& report_path) {
  if constexpr (!kObsCompiled) return nullptr;
  if (trace_path.empty() && report_path.empty()) return nullptr;
  return std::make_unique<Recorder>(/*metrics_on=*/true,
                                    /*trace_on=*/!trace_path.empty());
}

/// Write one artifact; only a failure is reported here.
bool write_artifact(const char* what, const std::string& path,
                    const std::string& json) {
  if (write_report_file(path, json)) return true;
  std::fprintf(stderr, "%s: FAILED to write %s\n", what, path.c_str());
  return false;
}

}  // namespace

ObservedSweep::ObservedSweep(std::string name)
    : name_(std::move(name)),
      trace_path_(env_path("WEHEY_TRACE")),
      recorder_(recorder_from_env(trace_path_, report_path_from_env(name_))),
      bind_(recorder_.get()),
      run_dir_(env_path("WEHEY_REPORT_DIR")),
      aggregator_(name_),
      meter_(name_) {
  report_.run = name_;
  runtime::enable_from_env();
  const std::string journal = env_path("WEHEY_CHECKPOINT");
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
    const std::string path = run_dir_ + "/" + run_id + ".report.json";
    if (!write_artifact("report", path, json)) run_write_failed_ = true;
  }
  return run.values;
}

bool ObservedSweep::finish() {
  if (finished_) return true;
  finished_ = true;
  bool ok = !run_write_failed_;
  if (recorder_ != nullptr && !trace_path_.empty()) {
    if (write_report_file(trace_path_, recorder_->timeline().chrome_json())) {
      std::fprintf(stderr, "trace: %s\n", trace_path_.c_str());
    } else {
      std::fprintf(stderr, "trace: FAILED to write %s\n", trace_path_.c_str());
      ok = false;
    }
  }
  const MetricsRegistry* metrics =
      recorder_ != nullptr ? &recorder_->metrics() : nullptr;
  if (!report_.run.empty()) {
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

}  // namespace wehey::obs
