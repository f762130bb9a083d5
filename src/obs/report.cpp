#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/aggregate.hpp"
#include "obs/inspect.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

AuditSection classify_audit(const GroundTruthSection& truth,
                            bool observed_positive, bool mechanism_mismatch,
                            const std::string& skip_reason,
                            const DecisionSection& decision) {
  AuditSection audit;
  if (!truth.present) return audit;
  audit.present = true;
  // A perfect localizer reports "evidence within the target area" exactly
  // when a differentiating limiter sits at/behind the convergence point —
  // unless a sanity-check third flow shares it, in which case the
  // per-client conclusion is the wrong one by construction (§5).
  audit.expected_positive = truth.differentiated &&
                            truth.within_target_area && !truth.sanity_check;
  audit.observed_positive = observed_positive;
  if (!skip_reason.empty()) {
    // No verdict to score: excluded from the confusion ratios, never
    // counted for or against accuracy.
    audit.classification = "skipped";
    audit.mismatch_reason = skip_reason;
    return audit;
  }
  if (audit.expected_positive) {
    audit.classification = observed_positive ? "tp" : "fn";
  } else {
    audit.classification = observed_positive ? "fp" : "tn";
  }
  if (observed_positive == audit.expected_positive) return audit;
  // Mismatch provenance, most-specific first. The sub-margin case shares
  // its threshold with the sweep knife-edge gate, so a "sub-margin-miss"
  // run is exactly one the gate would flag rather than fail.
  if (mechanism_mismatch) {
    audit.mismatch_reason = "mechanism-mismatch";
  } else if (!decision.evaluated) {
    audit.mismatch_reason = "not-evaluated";
  } else if (!decision.has_margin) {
    audit.mismatch_reason = "no-margin";
  } else if (std::abs(decision.margin) < kKnifeEdgeMargin) {
    audit.mismatch_reason = "sub-margin-miss";
  } else {
    audit.mismatch_reason = "clear-miss";
  }
  return audit;
}

std::string RunReport::to_json(const MetricsRegistry* metrics) const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kRunReportSchema << "\",\n";
  out << "  \"run\": \"" << json_escape(run) << "\",\n";
  if (!cell.empty()) {
    out << "  \"cell\": \"" << json_escape(cell) << "\",\n";
  }
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"fault_plan\": \"" << json_escape(fault_plan) << "\",\n";
  out << "  \"verdict\": \"" << json_escape(verdict) << "\",\n";
  out << "  \"reason\": \"" << json_escape(reason) << "\",\n";
  // v4: verdict provenance — every statistic/threshold comparison behind
  // the verdict, plus the run-level margin the sweep knife-edge gate
  // aggregates. Always present; a run that never reached analysis emits
  // the empty-but-valid block (evaluated=false, empty arrays).
  out << "  \"decision\": {\n";
  out << "    \"evaluated\": " << (decision.evaluated ? "true" : "false");
  if (decision.has_margin) {
    out << ",\n    \"margin\": " << json_number(decision.margin);
  }
  out << ",\n    \"detectors\": [";
  for (std::size_t i = 0; i < decision.detectors.size(); ++i) {
    const DecisionRow& d = decision.detectors[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "      {\"name\": \"" << json_escape(d.name) << "\""
        << ", \"statistic\": " << json_number(d.statistic)
        << ", \"threshold\": " << json_number(d.threshold)
        << ", \"margin\": " << json_number(d.margin)
        << ", \"outcome\": " << (d.outcome ? "true" : "false")
        << ", \"valid\": " << (d.valid ? "true" : "false");
    if (d.has_rho) {
      out << ", \"rho\": " << json_number(d.rho)
          << ", \"sigma_ms\": " << json_number(d.sigma_ms);
    }
    out << "}";
  }
  out << (decision.detectors.empty() ? "" : "\n    ") << "]";
  if (decision.has_aggregation) {
    out << ",\n    \"aggregation\": {\"sizes_tested\": "
        << decision.sizes_tested
        << ", \"sizes_correlated\": " << decision.sizes_correlated
        << ", \"sizes_valid\": " << decision.sizes_valid
        << ", \"threshold\": " << json_number(decision.aggregation_threshold)
        << ", \"margin\": " << json_number(decision.aggregation_margin)
        << ", \"outcome\": "
        << (decision.aggregation_outcome ? "true" : "false") << "}";
  }
  out << ",\n    \"degradations\": [";
  for (std::size_t i = 0; i < decision.degradations.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\""
        << json_escape(decision.degradations[i]) << "\"";
  }
  out << "]\n  },\n";
  // v5: the ground-truth ledger and the verdict audit. Both optional —
  // emitted only by runners that know what the simulator configured.
  if (ground_truth.present) {
    out << "  \"ground_truth\": {\"differentiated\": "
        << (ground_truth.differentiated ? "true" : "false")
        << ", \"mechanism\": \"" << json_escape(ground_truth.mechanism)
        << "\", \"placement\": \"" << json_escape(ground_truth.placement)
        << "\", \"within_target_area\": "
        << (ground_truth.within_target_area ? "true" : "false")
        << ", \"rate_bps\": " << json_number(ground_truth.rate_bps)
        << ", \"activation_bytes\": " << ground_truth.activation_bytes
        << ", \"sanity_check\": "
        << (ground_truth.sanity_check ? "true" : "false") << "},\n";
  }
  if (audit.present) {
    out << "  \"audit\": {\"expected_positive\": "
        << (audit.expected_positive ? "true" : "false")
        << ", \"observed_positive\": "
        << (audit.observed_positive ? "true" : "false")
        << ", \"classification\": \"" << json_escape(audit.classification)
        << "\", \"mismatch_reason\": \"" << json_escape(audit.mismatch_reason)
        << "\"},\n";
  }
  out << "  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(s.name) << "\""
        << ", \"sim_start_us\": "
        << json_number(static_cast<double>(s.sim_start) / 1000.0)
        << ", \"sim_end_us\": "
        << json_number(static_cast<double>(s.sim_end) / 1000.0) << "}";
  }
  out << (stages.empty() ? "" : "\n  ") << "],\n";
  out << "  \"values\": {";
  bool first = true;
  for (const auto& [name, v] : values) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << json_number(v);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";
  out << "  \"injection\": {";
  int total = 0;
  first = true;
  for (const auto& [kind, n] : injection) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(kind)
        << "\": " << n;
    total += n;
    first = false;
  }
  if (!first) out << ",\n    \"total\": " << total << "\n  ";
  out << "},\n";
  out << "  \"metrics\": ";
  if (metrics != nullptr) {
    out << metrics->to_json(2);
  } else {
    out << "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}";
  }
  out << "\n}\n";
  return out.str();
}

namespace {

bool reject(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool is_number(const JsonValue& v) { return v.type == JsonValue::Type::Number; }

/// Reads a document's integer fields through JsonValue::integer and keeps
/// the first one that is not a whole number in range, so that from_json
/// rejects the document instead of casting it.
class IntegerFields {
 public:
  template <typename T>
  void read(const JsonValue& v, T& out, const char* what,
            const std::string& name = "") {
    if (v.integer(out) || !error_.empty()) return;
    error_ = std::string("malformed ") + what;
    if (!name.empty()) error_ += " '" + name + "'";
  }
  const std::string& error() const { return error_; }

 private:
  std::string error_;
};

/// A stage bound back on the nanosecond clock: to_json writes ns / 1000
/// in round-trippable form, so this recovers the exact Time.
Time from_us(const JsonValue& us) {
  return static_cast<Time>(std::llround(us.num_or(0) * 1000.0));
}

}  // namespace

bool RunReport::from_json(const JsonValue& doc, RunReport& report,
                          MetricsRegistry& metrics, std::string* error) {
  if (doc.type != JsonValue::Type::Object) {
    return reject(error, "not a JSON object");
  }
  if (!is_run_report(doc)) {
    return reject(error,
                  std::string("not a ") + kRunReportSchema + " document");
  }
  RunReport r;
  MetricsRegistry m;
  IntegerFields ints;
  r.run = doc.at("run").str;
  r.cell = doc.at("cell").str;
  ints.read(doc.at("seed"), r.seed, "seed");
  r.fault_plan = doc.at("fault_plan").str;
  r.verdict = doc.at("verdict").str;
  r.reason = doc.at("reason").str;

  const JsonValue& decision = doc.at("decision");
  DecisionSection& d = r.decision;
  d.evaluated = decision.at("evaluated").boolean;
  d.has_margin = decision.find("margin") != nullptr;
  d.margin = decision.at("margin").num_or(0);
  for (const JsonValue& row : decision.at("detectors").array) {
    d.detectors.push_back(
        {row.at("name").str, row.at("statistic").num_or(0),
         row.at("threshold").num_or(0), row.at("margin").num_or(0),
         row.at("outcome").boolean, row.at("valid").boolean,
         row.find("rho") != nullptr, row.at("rho").num_or(0),
         row.at("sigma_ms").num_or(0)});
  }
  if (const JsonValue* agg = decision.find("aggregation")) {
    d.has_aggregation = true;
    ints.read(agg->at("sizes_tested"), d.sizes_tested, "aggregation");
    ints.read(agg->at("sizes_correlated"), d.sizes_correlated, "aggregation");
    ints.read(agg->at("sizes_valid"), d.sizes_valid, "aggregation");
    d.aggregation_threshold = agg->at("threshold").num_or(0);
    d.aggregation_margin = agg->at("margin").num_or(0);
    d.aggregation_outcome = agg->at("outcome").boolean;
  }
  for (const JsonValue& deg : decision.at("degradations").array) {
    d.degradations.push_back(deg.str);
  }
  if (const JsonValue* truth = doc.find("ground_truth")) {
    r.ground_truth = {true,
                      truth->at("differentiated").boolean,
                      truth->at("mechanism").str,
                      truth->at("placement").str,
                      truth->at("within_target_area").boolean,
                      truth->at("rate_bps").num_or(0),
                      0,
                      truth->at("sanity_check").boolean};
    ints.read(truth->at("activation_bytes"),
              r.ground_truth.activation_bytes, "ground_truth");
  }
  if (const JsonValue* audit = doc.find("audit")) {
    r.audit = {true, audit->at("expected_positive").boolean,
               audit->at("observed_positive").boolean,
               audit->at("classification").str,
               audit->at("mismatch_reason").str};
  }
  for (const JsonValue& s : doc.at("stages").array) {
    if (s.at("name").type != JsonValue::Type::String ||
        !is_number(s.at("sim_start_us")) || !is_number(s.at("sim_end_us"))) {
      return reject(error, "malformed stages entry");
    }
    r.add_stage(s.at("name").str, from_us(s.at("sim_start_us")),
                from_us(s.at("sim_end_us")));
  }
  for (const auto& [name, v] : doc.at("values").object) {
    r.values[name] = v.num_or(0);
  }
  for (const auto& [kind, n] : doc.at("injection").object) {
    if (kind != "total") ints.read(n, r.injection[kind], "injection", kind);
  }

  const JsonValue& registry = doc.at("metrics");
  for (const auto& [name, c] : registry.at("counters").object) {
    std::uint64_t n = 0;
    ints.read(c, n, "counter", name);
    m.counter(name).inc(n);
  }
  for (const auto& [name, g] : registry.at("gauges").object) {
    // min <= last <= max, so the watermarks survive the last set().
    Gauge& gauge = m.gauge(name);
    gauge.set(g.at("min").num_or(0));
    gauge.set(g.at("max").num_or(0));
    gauge.set(g.at("last").num_or(0));
  }
  for (const auto& [name, h] : registry.at("histograms").object) {
    const std::vector<JsonValue>& bins = h.at("bins").array;
    if (bins.size() < 3) {
      return reject(error, "histogram '" + name + "' has fewer than 3 bins");
    }
    std::uint64_t count = 0;
    std::vector<std::uint64_t> tallies(bins.size(), 0);
    ints.read(h.at("count"), count, "histogram", name);
    for (std::size_t i = 0; i < bins.size(); ++i) {
      ints.read(bins[i], tallies[i], "histogram", name);
    }
    m.restore_histogram(name, h.at("lo").num_or(0), h.at("hi").num_or(0),
                        count, h.at("sum").num_or(0), h.at("min").num_or(0),
                        h.at("max").num_or(0), std::move(tallies));
  }
  if (!ints.error().empty()) return reject(error, ints.error());
  report = std::move(r);
  metrics = std::move(m);
  return true;
}

std::string env_path(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || std::string(value) == "0") return {};
  return value;
}

std::string report_path_from_env(const std::string& run_name) {
  const std::string path = env_path("WEHEY_REPORT");
  if (!path.empty()) return path;
  const std::string dir = env_path("WEHEY_REPORT_DIR");
  return dir.empty() ? dir : dir + "/" + run_name + ".report.json";
}

std::string sweep_path_from_env(const std::string& run_name) {
  const std::string dir = env_path("WEHEY_REPORT_DIR");
  return dir.empty() ? dir : dir + "/" + run_name + ".sweep.json";
}

bool write_report_file(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) ==
                     json.size();
  // A short file can fit in the stdio buffer: its write error (ENOSPC)
  // only shows at fclose.
  return std::fclose(f) == 0 && wrote;
}

}  // namespace wehey::obs
