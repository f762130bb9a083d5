#include "obs/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <regex>
#include <sstream>

#include "common/time.hpp"
#include "obs/timeline.hpp"
#include "stats/descriptive.hpp"

namespace wehey::obs {

namespace {

using stats::sorted_quantile;

constexpr char kNoneLabel[] = "(none)";

const std::string& label_or_none(const std::string& s) {
  static const std::string none = kNoneLabel;
  return s.empty() ? none : s;
}

/// Sum in ascending order — with pre-sorted input this is a pure
/// function of the sample *set*, immune to absorb order.
double sorted_sum(const std::vector<double>& sorted) {
  double total = 0.0;
  for (double v : sorted) total += v;
  return total;
}

}  // namespace

void SweepAggregator::add_run(const RunReport& report,
                              const MetricsRegistry* metrics) {
  CellAgg* cell = report.cell.empty() ? nullptr : &cells_[report.cell];
  ++runs_;
  ++fault_plans_[label_or_none(report.fault_plan)];
  ++verdicts_[label_or_none(report.verdict)];
  if (!report.reason.empty()) ++reasons_[report.reason];
  if (cell != nullptr) {
    ++cell->runs;
    ++cell->verdicts[label_or_none(report.verdict)];
    if (report.verdict == kBudgetExhaustedVerdict) {
      ++cell->poisoned;
      ++cell->poison_reasons[label_or_none(report.reason)];
    }
  }
  for (const auto& [kind, n] : report.injection) injection_[kind] += n;
  const auto absorb_value = [&](const std::string& name, double v) {
    values_[name].values.push_back(v);
    if (cell != nullptr) cell->values[name].values.push_back(v);
  };
  for (const auto& [name, v] : report.values) absorb_value(name, v);
  // The verdict margin joins the cell's value blocks; the knife_edge
  // block is derived from these samples at render time.
  if (report.decision.has_margin) {
    absorb_value(kDecisionMarginValue, report.decision.margin);
  }
  if (report.audit.present) {
    const std::string& classification = report.audit.classification;
    const auto apply = [&](AuditTally& t) {
      if (classification == "tp") {
        ++t.tp;
      } else if (classification == "fp") {
        ++t.fp;
      } else if (classification == "fn") {
        ++t.fn;
      } else if (classification == "tn") {
        ++t.tn;
      } else {
        ++t.skipped;
      }
      if (!report.audit.mismatch_reason.empty()) {
        ++t.mismatch_reasons[report.audit.mismatch_reason];
      }
    };
    apply(audit_);
    if (cell != nullptr) apply(cell->audit);
  }
  for (const auto& s : report.stages) {
    // The expression `inspect` prints for one run's stage.
    stages_[s.name].values.push_back(to_milliseconds(s.sim_end) -
                                     to_milliseconds(s.sim_start));
  }
  if (metrics == nullptr) return;
  for (const auto& [name, c] : metrics->counters()) {
    counters_[name] += c.value();
  }
  for (const auto& [name, g] : metrics->gauges()) {
    if (!g.seen()) continue;
    GaugeAgg& mine = gauges_[name];
    if (!mine.seen || g.min() < mine.min) mine.min = g.min();
    if (!mine.seen || g.max() > mine.max) mine.max = g.max();
    mine.seen = true;
  }
  for (const auto& [name, h] : metrics->histograms()) {
    auto [it, inserted] = histograms_.try_emplace(name);
    HistAgg& mine = it->second;
    if (inserted) {
      mine.lo = h.lo();
      mine.hi = h.hi();
      mine.bins.assign(h.bins().size(), 0);
    }
    if (h.count() == 0) continue;
    if (mine.count == 0 || h.min() < mine.min) mine.min = h.min();
    if (mine.count == 0 || h.max() > mine.max) mine.max = h.max();
    mine.count += h.count();
    mine.run_sums.values.push_back(h.sum());
    const std::size_t n = std::min(mine.bins.size(), h.bins().size());
    for (std::size_t i = 0; i < n; ++i) mine.bins[i] += h.bins()[i];
  }
}

namespace {

/// {"count": N, "min":, "max":, "mean":, "sum":, "p50":, "p90":, "p99":}
/// over the numerically sorted samples.
void emit_summary(std::ostringstream& out, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const double sum = sorted_sum(samples);
  const std::size_t n = samples.size();
  out << "{\"count\": " << n;
  if (n > 0) {
    out << ", \"min\": " << json_number(samples.front())
        << ", \"max\": " << json_number(samples.back())
        << ", \"mean\": " << json_number(sum / static_cast<double>(n))
        << ", \"sum\": " << json_number(sum)
        << ", \"p50\": " << json_number(sorted_quantile(samples, 0.50))
        << ", \"p90\": " << json_number(sorted_quantile(samples, 0.90))
        << ", \"p99\": " << json_number(sorted_quantile(samples, 0.99));
  }
  out << "}";
}

void emit_tally(std::ostringstream& out, const std::string& indent,
                const std::map<std::string, std::uint64_t>& tally) {
  out << "{";
  bool first = true;
  for (const auto& [name, n] : tally) {
    out << (first ? "\n" : ",\n") << indent << "  \"" << json_escape(name)
        << "\": " << n;
    first = false;
  }
  out << (first ? "" : "\n" + indent) << "}";
}

}  // namespace

std::string SweepAggregator::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kSweepReportSchema << "\",\n";
  out << "  \"sweep\": \"" << json_escape(sweep_) << "\",\n";
  out << "  \"runs\": " << runs_ << ",\n";
  out << "  \"fault_plans\": ";
  emit_tally(out, "  ", fault_plans_);
  out << ",\n  \"verdicts\": ";
  emit_tally(out, "  ", verdicts_);
  out << ",\n  \"reasons\": ";
  emit_tally(out, "  ", reasons_);
  out << ",\n  \"injection\": {";
  bool first = true;
  std::int64_t total = 0;
  for (const auto& [kind, n] : injection_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(kind)
        << "\": " << n;
    total += n;
    first = false;
  }
  if (!first) out << ",\n    \"total\": " << total << "\n  ";
  out << "},\n";

  out << "  \"values\": {";
  first = true;
  for (const auto& [name, s] : values_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": ";
    emit_summary(out, s.values);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"stages\": {";
  first = true;
  for (const auto& [name, s] : stages_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": ";
    emit_summary(out, s.values);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"cells\": {";
  first = true;
  for (const auto& [cell, c] : cells_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(cell)
        << "\": {\n      \"runs\": " << c.runs << ",\n      \"verdicts\": ";
    emit_tally(out, "      ", c.verdicts);
    out << ",\n      \"values\": {";
    bool vfirst = true;
    for (const auto& [name, s] : c.values) {
      out << (vfirst ? "\n" : ",\n") << "        \"" << json_escape(name)
          << "\": ";
      emit_summary(out, s.values);
      vfirst = false;
    }
    out << (vfirst ? "" : "\n      ") << "}\n    }";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  // Quarantine: a pure function of the absorbed run set (like every other
  // block), so resumed and uninterrupted sweeps agree byte-for-byte.
  // Only quarantined cells are listed; presence in "cells" = quarantined.
  out << "  \"quarantine\": {\n    \"threshold\": "
      << kQuarantineThreshold << ",\n    \"cells\": {";
  first = true;
  for (const auto& [cell, c] : cells_) {
    if (c.poisoned < static_cast<std::uint64_t>(kQuarantineThreshold)) {
      continue;
    }
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(cell)
        << "\": {\"poisoned_runs\": " << c.poisoned << ", \"reasons\": ";
    emit_tally(out, "      ", c.poison_reasons);
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n  },\n";

  // Knife-edge cells: minimum |decision margin| below kKnifeEdgeMargin,
  // i.e. at least one run's verdict sat close enough to a decision
  // boundary that an equivalent-but-not-identical realization (packet vs
  // fluid background, a different seed) could flip it. CI derives its
  // per-cell verdict exemptions from this block instead of hard-coding
  // cell names.
  out << "  \"knife_edge\": {\n    \"margin_threshold\": "
      << json_number(kKnifeEdgeMargin) << ",\n    \"cells\": {";
  first = true;
  for (const auto& [cell, c] : cells_) {
    const auto it = c.values.find(kDecisionMarginValue);
    if (it == c.values.end() || it->second.values.empty()) continue;
    double min_abs = 0.0;
    std::uint64_t below = 0;
    bool seen = false;
    for (double v : it->second.values) {
      const double a = std::abs(v);
      if (!seen || a < min_abs) min_abs = a;
      seen = true;
      if (a < kKnifeEdgeMargin) ++below;
    }
    if (min_abs >= kKnifeEdgeMargin) continue;
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(cell)
        << "\": {\"min_margin\": " << json_number(min_abs)
        << ", \"runs_below\": " << below << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n  },\n";

  // Verdict audit: per-cell and grid-level confusion matrices folded
  // from the per-run "audit" sections (RunReport v5). The block is
  // absent when no absorbed run carried an audit. Ratios are derived
  // from the integer tallies at render time; knife-edge cells (same
  // min-|margin| criterion as the knife_edge block above) are flagged,
  // not dropped, so CI gates can exempt them explicitly.
  if (audit_.any()) {
    const auto emit_audit = [&](const AuditTally& t, const std::string& ind) {
      const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) / static_cast<double>(den);
      };
      const std::uint64_t decided = t.tp + t.fp + t.fn + t.tn;
      out << "\"tp\": " << t.tp << ", \"fp\": " << t.fp << ", \"fn\": "
          << t.fn << ", \"tn\": " << t.tn << ", \"skipped\": " << t.skipped
          << ",\n" << ind << " \"accuracy\": "
          << json_number(ratio(t.tp + t.tn, decided))
          << ", \"precision\": " << json_number(ratio(t.tp, t.tp + t.fp))
          << ", \"recall\": " << json_number(ratio(t.tp, t.tp + t.fn))
          << ",\n" << ind << " \"mismatch_reasons\": ";
      emit_tally(out, ind + " ", t.mismatch_reasons);
    };
    out << "  \"audit\": {\n    \"grid\": {";
    emit_audit(audit_, "   ");
    out << "},\n    \"cells\": {";
    first = true;
    for (const auto& [cell, c] : cells_) {
      if (!c.audit.any()) continue;
      bool knife = false;
      if (const auto it = c.values.find(kDecisionMarginValue);
          it != c.values.end()) {
        for (double v : it->second.values) {
          if (std::abs(v) < kKnifeEdgeMargin) {
            knife = true;
            break;
          }
        }
      }
      out << (first ? "\n" : ",\n") << "      \"" << json_escape(cell)
          << "\": {";
      emit_audit(c.audit, "     ");
      out << ",\n       \"knife_edge\": " << (knife ? "true" : "false")
          << "}";
      first = false;
    }
    out << (first ? "" : "\n    ") << "}\n  },\n";
  }

  out << "  \"metrics\": {\n";
  out << "    \"counters\": {";
  first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(name)
        << "\": " << v;
    first = false;
  }
  out << (first ? "" : "\n    ") << "},\n";
  // Gauge "last" is a function of absorb order, so the sweep keeps only
  // the order-free watermarks.
  out << "    \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!g.seen) continue;
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(name)
        << "\": {\"min\": " << json_number(g.min)
        << ", \"max\": " << json_number(g.max) << "}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "},\n";
  out << "    \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::vector<double> sums = h.run_sums.values;
    std::sort(sums.begin(), sums.end());
    out << (first ? "\n" : ",\n") << "      \"" << json_escape(name)
        << "\": {\"lo\": " << json_number(h.lo)
        << ", \"hi\": " << json_number(h.hi) << ", \"count\": " << h.count
        << ", \"sum\": " << json_number(sorted_sum(sums))
        << ", \"min\": " << json_number(h.count ? h.min : 0.0)
        << ", \"max\": " << json_number(h.count ? h.max : 0.0)
        << ", \"bins\": [";
    for (std::size_t i = 0; i < h.bins.size(); ++i) {
      if (i > 0) out << ", ";
      out << h.bins[i];
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "}\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Baseline comparison.

namespace {

struct FlatValue {
  JsonValue::Type type = JsonValue::Type::Null;
  double number = 0.0;
  std::string str;
  bool boolean = false;
};

void flatten(const JsonValue& v, const std::string& path,
             std::map<std::string, FlatValue>& out) {
  switch (v.type) {
    case JsonValue::Type::Object:
      for (const auto& [key, child] : v.object) {
        flatten(child, path.empty() ? key : path + "." + key, out);
      }
      break;
    case JsonValue::Type::Array:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        flatten(v.array[i], path + "[" + std::to_string(i) + "]", out);
      }
      break;
    default: {
      FlatValue f;
      f.type = v.type;
      f.number = v.number;
      f.str = v.str;
      f.boolean = v.boolean;
      out[path] = std::move(f);
      break;
    }
  }
}

bool any_match(const std::vector<std::string>& patterns,
               const std::string& key) {
  for (const auto& p : patterns) {
    if (std::regex_search(key, std::regex(p))) return true;
  }
  return false;
}

std::string type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
  }
  return "?";
}

}  // namespace

std::vector<std::string> flatten_keys(const JsonValue& doc) {
  std::map<std::string, FlatValue> flat;
  flatten(doc, "", flat);
  std::vector<std::string> keys;
  keys.reserve(flat.size());
  for (const auto& [key, value] : flat) keys.push_back(key);
  return keys;
}

CompareResult compare_reports(const JsonValue& baseline,
                              const JsonValue& candidate,
                              const CompareOptions& options) {
  CompareResult result;
  std::map<std::string, FlatValue> base, cand;
  flatten(baseline, "", base);
  flatten(candidate, "", cand);

  const auto tolerance_for = [&](const std::string& key) {
    for (const auto& [pattern, tol] : options.key_tolerances) {
      if (std::regex_search(key, std::regex(pattern))) return tol;
    }
    return options.tolerance;
  };

  for (const auto& [key, b] : base) {
    if (any_match(options.ignore, key)) continue;
    const auto it = cand.find(key);
    if (it == cand.end()) {
      result.failures.push_back("missing in candidate: " + key);
      continue;
    }
    const FlatValue& c = it->second;
    if (b.type != c.type) {
      result.failures.push_back("type changed at " + key + ": " +
                                type_name(b.type) + " -> " +
                                type_name(c.type));
      continue;
    }
    switch (b.type) {
      case JsonValue::Type::String:
        if (b.str != c.str) {
          result.failures.push_back("string changed at " + key + ": \"" +
                                    b.str + "\" -> \"" + c.str + "\"");
        }
        break;
      case JsonValue::Type::Bool:
        if (b.boolean != c.boolean) {
          result.failures.push_back("bool changed at " + key);
        }
        break;
      case JsonValue::Type::Number: {
        const double tol = tolerance_for(key);
        const double diff = std::abs(c.number - b.number);
        const double denom = std::abs(b.number);
        const bool bad = denom < 1e-12 ? diff > tol : diff / denom > tol;
        if (bad) {
          result.failures.push_back(
              "out of tolerance at " + key + ": " + json_number(b.number) +
              " -> " + json_number(c.number) + " (tol " + json_number(tol) +
              ")");
        }
        break;
      }
      default:
        break;  // nulls compare equal by type
    }
  }
  for (const auto& [key, c] : cand) {
    if (base.count(key) != 0 || any_match(options.ignore, key)) continue;
    result.notes.push_back("new key (not in baseline): " + key);
  }
  for (const auto& [pattern, floor] : options.min_keys) {
    const std::regex re(pattern);
    bool matched = false;
    for (const auto& [key, c] : cand) {
      if (c.type != JsonValue::Type::Number || !std::regex_search(key, re)) {
        continue;
      }
      matched = true;
      if (c.number < floor) {
        result.failures.push_back("below floor at " + key + ": " +
                                  json_number(c.number) + " < " +
                                  json_number(floor));
      }
    }
    if (!matched) {
      result.failures.push_back("min-key pattern matched nothing: " + pattern);
    }
  }
  // Existence gates: deliberately checked against *all* candidate keys,
  // including ignored ones — "this section exists" and "this section's
  // numbers drift" are independent assertions.
  for (const auto& pattern : options.require_keys) {
    const std::regex re(pattern);
    bool matched = false;
    for (const auto& [key, c] : cand) {
      if (std::regex_search(key, re)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      result.failures.push_back("require-key pattern matched nothing: " +
                                pattern);
    }
  }
  result.ok = result.failures.empty();
  return result;
}

}  // namespace wehey::obs
