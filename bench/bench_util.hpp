// Shared helpers for the per-table/per-figure reproduction benches.
//
// Every bench binary is runnable with no arguments and prints the same
// rows/series the paper reports. Two environment variables control scale
// (see experiments/params.hpp): WEHEY_FULL=1 for the paper-scale grid,
// WEHEY_RUNS_PER_CONFIG=N to override repetitions. A bench's deterministic
// numbers go into the values of its own RunReport (obs::ObservedSweep;
// WEHEY_REPORT / WEHEY_REPORT_DIR write it), and its main returns
// `obs_run.finish() ? 0 : 1` so that a failed artifact write fails it.
//
// The grid benches (Tables 1 and 3-5, Figs 5-7, and the §3.2/§7 extension
// and ablation benches bench_bbr, bench_shaper_limitation, bench_perflow
// and bench_ablations) run their grids through run_grid: one reported run
// per grid point, absorbed into the sweep, one sweep cell per table cell
// or row. The §6 benches score each run with the audit of
// experiments::run_simultaneous_test_reported and print their rates from
// the cell's audit counts (FN = fn/(tp+fn), FP = fp/(fp+tn)); runs WeHe
// did not confirm, or that ran out of budget, are skipped, as §6.2
// excludes them. A bench's own detectors run in its run callback on the
// test's phase reports and land in the run's values before the absorb.
// With WEHEY_CHECKPOINT every grid bench resumes a killed sweep into the
// same tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "faults/plan.hpp"
#include "obs/sweep.hpp"
#include "parallel/thread_pool.hpp"

namespace wehey::bench {

inline void print_header(const std::string& id, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  const auto scale = experiments::run_scale();
  std::printf("mode: %s (runs/config=%zu, replay=%.0fs; set WEHEY_FULL=1 "
              "for the paper-scale grid)\n",
              scale.full ? "FULL" : "FAST", scale.runs_per_config,
              to_seconds(scale.replay_duration));
  std::printf("==============================================================\n");
}

/// Run `i` of a grid in sweep cell `cell`: "<sweep>.<cell>.r<i>". Cell
/// labels use only [A-Za-z0-9_-]: they appear in per-run file names and in
/// `wehey_cli compare`'s dotted key paths.
inline std::string grid_run_id(const obs::ObservedSweep& sweep,
                               const std::string& cell, std::size_t i) {
  char index[24];
  std::snprintf(index, sizeof(index), ".r%03zu", i);
  return sweep.name() + "." + cell + index;
}

/// Whether any run of the grid `cells` executes in this process: the
/// rest were completed by the sweep a journal resumes.
inline bool grid_has_live_runs(const obs::ObservedSweep& sweep,
                               const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!sweep.completed(grid_run_id(sweep, cells[i], i))) return true;
  }
  return false;
}

/// One grid: run i lands in sweep cell cells[i]. `run(i, run_id)` returns
/// a reported result (`report` and `metrics`) and is called only for runs
/// the sweep has not completed, on the parallel engine. Every run is then
/// absorbed in index order, and the absorbed reports, live or journaled,
/// come back in that order, so a resumed sweep prints the same tables.
template <class Run>
std::vector<obs::RunReport> run_grid(obs::ObservedSweep& sweep,
                                     const std::vector<std::string>& cells,
                                     Run&& run) {
  struct Result {
    obs::RunReport report;
    obs::MetricsRegistry metrics;
  };
  std::vector<std::string> ids(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ids[i] = grid_run_id(sweep, cells[i], i);
  }
  auto results = parallel::parallel_map(cells.size(), [&](std::size_t i) {
    if (sweep.completed(ids[i])) return Result{};
    auto res = run(i, ids[i]);
    res.report.cell = cells[i];
    return Result{std::move(res.report), std::move(res.metrics)};
  });
  std::vector<obs::RunReport> absorbed;
  absorbed.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    absorbed.push_back(
        sweep.absorb(ids[i], results[i].report, &results[i].metrics));
  }
  return absorbed;
}

/// `key` summed over the reports of sweep cell `cell`, in index order.
inline double cell_sum(const std::vector<obs::RunReport>& reports,
                       const std::string& cell, const std::string& key) {
  double sum = 0.0;
  for (const auto& r : reports) {
    if (r.cell == cell) sum += r.values.at(key);
  }
  return sum;
}

/// `num` of `den` in percent, printed as "%<width-1>.<precision>f%%" would
/// print it; "n/a" right-aligned to `width` when `den` is 0 (a cell with
/// no evaluated run has no rate).
inline std::string percent(std::uint64_t num, std::uint64_t den, int width,
                           int precision) {
  char buf[32];
  if (den == 0) {
    std::snprintf(buf, sizeof(buf), "%*s", width, "n/a");
  } else {
    std::snprintf(buf, sizeof(buf), "%*.*f%%", width > 0 ? width - 1 : 0,
                  precision,
                  100.0 * static_cast<double>(num) / static_cast<double>(den));
  }
  return buf;
}

}  // namespace wehey::bench
