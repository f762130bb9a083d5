#include "obs/inspect.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "obs/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"

namespace wehey::obs {

// ------------------------------------------------------------- JSON parse

namespace {

/// Containers may nest at most this deep. The parser is recursive
/// descent, so unbounded nesting in a hostile/corrupt input would
/// otherwise translate directly into stack exhaustion; every document
/// the obs writers emit stays below a dozen levels.
constexpr int kMaxParseDepth = 64;

struct Parser {
  const char* p;
  const char* end;
  std::string error;
  int depth = 0;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool fail(const char* msg) {
    error = msg;
    return false;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.type = JsonValue::Type::String;
        return parse_string(out.str);
      case 't':
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
          out.type = JsonValue::Type::Bool;
          out.boolean = true;
          p += 4;
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
          out.type = JsonValue::Type::Bool;
          out.boolean = false;
          p += 5;
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
          out.type = JsonValue::Type::Null;
          p += 4;
          return true;
        }
        return fail("bad literal");
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    ++p;  // opening quote
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (p + 1 >= end) return fail("bad escape");
        ++p;
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Pass the escape through; the obs writers only emit \u00XX
            // for control characters, which never matter to the analyzer.
            if (end - p < 5) return fail("bad \\u escape");
            out += "\\u";
            out.append(p + 1, 4);
            p += 4;
            break;
          default: return fail("bad escape");
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out) {
    char* after = nullptr;
    const double v = std::strtod(p, &after);
    if (after == p) return fail("bad number");
    out.type = JsonValue::Type::Number;
    out.number = v;
    p = after;
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::Array;
    if (++depth > kMaxParseDepth) return fail("nesting too deep");
    ++p;
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      --depth;
      return true;
    }
    while (true) {
      out.array.emplace_back();
      if (!parse_value(out.array.back())) return false;
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        --depth;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::Object;
    if (++depth > kMaxParseDepth) return fail("nesting too deep");
    ++p;
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      --depth;
      return true;
    }
    while (true) {
      skip_ws();
      if (p >= end || *p != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (p >= end || *p != ':') return fail("expected ':'");
      ++p;
      out.object.emplace_back(std::move(key), JsonValue{});
      if (!parse_value(out.object.back().second)) return false;
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        --depth;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  static const JsonValue null;
  const JsonValue* v = find(key);
  return v != nullptr ? *v : null;
}

bool json_parse(const std::string& text, JsonValue& out,
                std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), {}};
  if (!parser.parse_value(out)) {
    if (error != nullptr) *error = parser.error;
    return false;
  }
  parser.skip_ws();
  if (parser.p != parser.end) {
    if (error != nullptr) *error = "trailing characters";
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  // Read to EOF rather than trusting ftell, which is meaningless for a
  // directory (fopen succeeds, fread fails with EISDIR) or a pipe.
  out.clear();
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

namespace {

bool has_schema(const JsonValue& doc, const char* schema) {
  const JsonValue* tag = doc.find("schema");
  return tag != nullptr && tag->type == JsonValue::Type::String &&
         tag->str == schema;
}

}  // namespace

bool is_run_report(const JsonValue& doc) {
  return has_schema(doc, kRunReportSchema);
}

bool is_runtime_report(const JsonValue& doc) {
  return has_schema(doc, kRuntimeReportSchema);
}

namespace {

void print_rule(std::FILE* out, const char* title) {
  std::fprintf(out, "\n%s\n", title);
  for (const char* c = title; *c != 0; ++c) std::fputc('-', out);
  std::fputc('\n', out);
}

// ---------------------------------------------------------- report render

/// The counters named `prefix`*, under `title`; only those whose name
/// contains `row_filter` get a row. Returns whether any counter matched
/// (and so the section printed).
bool print_counters(std::FILE* out, const MetricsRegistry& metrics,
                    const std::string& prefix, const char* title,
                    const char* row_filter = "") {
  bool any = false;
  for (const auto& [name, c] : metrics.counters()) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (!any) print_rule(out, title);
    any = true;
    if (name.find(row_filter) == std::string::npos) continue;
    std::fprintf(out, "  %-28s %10.0f\n", name.c_str(),
                 static_cast<double>(c.value()));
  }
  return any;
}

void render_report(const RunReport& r, const MetricsRegistry& metrics,
                   std::FILE* out) {
  std::fprintf(out, "run report  %s\n", kRunReportSchema);
  std::fprintf(out, "  run        %s\n", r.run.c_str());
  std::fprintf(out, "  seed       %.0f\n", static_cast<double>(r.seed));
  std::fprintf(out, "  fault plan %s\n",
               r.fault_plan.empty() ? "(none)" : r.fault_plan.c_str());
  std::fprintf(out, "  verdict    %s\n", r.verdict.c_str());
  if (!r.reason.empty()) {
    std::fprintf(out, "  reason     %s\n", r.reason.c_str());
  }

  // Verdict provenance.
  const DecisionSection& d = r.decision;
  print_rule(out, "decision (margin < 0 would flip; |margin| ~ 0 = knife-edge)");
  std::fprintf(out, "  evaluated      %s\n",
               d.evaluated ? "yes" : "no (pre-analysis)");
  if (d.has_margin) std::fprintf(out, "  verdict margin %.4g\n", d.margin);
  if (!d.detectors.empty()) {
    std::fprintf(out, "  %-18s %11s %11s %11s %8s %6s\n", "detector",
                 "statistic", "threshold", "margin", "outcome", "valid");
  }
  for (const DecisionRow& row : d.detectors) {
    std::fprintf(out, "  %-18s %11.4g %11.4g %11.4g %8s %6s", row.name.c_str(),
                 row.statistic, row.threshold, row.margin,
                 row.outcome ? "fired" : "no", row.valid ? "yes" : "NO");
    if (row.has_rho) {
      std::fprintf(out, "  rho=%.4g sigma=%.4g ms", row.rho, row.sigma_ms);
    }
    std::fputc('\n', out);
  }
  if (d.has_aggregation) {
    std::fprintf(out,
                 "  aggregation    %.0f/%.0f sizes correlated (%.0f valid) "
                 "vs threshold %.4g -> %s (margin %.4g)\n",
                 static_cast<double>(d.sizes_correlated),
                 static_cast<double>(d.sizes_tested),
                 static_cast<double>(d.sizes_valid), d.aggregation_threshold,
                 d.aggregation_outcome ? "common bottleneck" : "no",
                 d.aggregation_margin);
  }
  if (!d.degradations.empty()) {
    std::fprintf(out, "  degradations  ");
    for (const auto& deg : d.degradations) {
      std::fprintf(out, " %s", deg.c_str());
    }
    std::fputc('\n', out);
  }

  // Ground truth + audit: only runners that know their ground truth
  // emit them.
  const GroundTruthSection& truth = r.ground_truth;
  if (truth.present) {
    print_rule(out, "audit (verdict vs configured ground truth)");
    std::fprintf(out, "  truth          %s",
                 truth.differentiated ? truth.mechanism.c_str()
                                      : "no differentiation");
    if (truth.differentiated) {
      std::fprintf(out, " @ %s (%s target area)", truth.placement.c_str(),
                   truth.within_target_area ? "within" : "outside");
      if (truth.rate_bps > 0) {
        std::fprintf(out, ", rate %.4g bps", truth.rate_bps);
      }
      if (truth.activation_bytes > 0) {
        std::fprintf(out, ", activates after %.0f bytes",
                     static_cast<double>(truth.activation_bytes));
      }
    }
    if (truth.sanity_check) std::fprintf(out, "  [sanity check]");
    std::fputc('\n', out);
    if (r.audit.present) {
      std::fprintf(out, "  expected       %s\n",
                   r.audit.expected_positive ? "positive" : "negative");
      std::fprintf(out, "  observed       %s\n",
                   r.audit.observed_positive ? "positive" : "negative");
      std::fprintf(out, "  classification %s",
                   r.audit.classification.c_str());
      if (!r.audit.mismatch_reason.empty()) {
        std::fprintf(out, "  (%s)", r.audit.mismatch_reason.c_str());
      }
      std::fputc('\n', out);
    }
  }

  if (!r.stages.empty()) print_rule(out, "stages (sim time)");
  for (const StageTiming& st : r.stages) {
    std::fprintf(out, "  %-24s %12.3f ms\n", st.name.c_str(),
                 to_milliseconds(st.sim_end) - to_milliseconds(st.sim_start));
  }

  if (!metrics.histograms().empty()) {
    print_rule(out, "latency percentiles (from histogram bins)");
    std::fprintf(out, "  %-28s %10s %10s %10s %10s %10s\n", "histogram",
                 "count", "p50", "p90", "p99", "max");
  }
  for (const auto& [name, h] : metrics.histograms()) {
    if (h.count() == 0) continue;
    std::fprintf(out, "  %-28s %10.0f %10.4g %10.4g %10.4g %10.4g\n",
                 name.c_str(), static_cast<double>(h.count()),
                 histogram_quantile(h, 0.50), histogram_quantile(h, 0.90),
                 histogram_quantile(h, 0.99), h.max());
  }

  print_counters(out, metrics, "queue.", "queue drops by reason", ".drop.");
  if (print_counters(out, metrics, "tcp.", "per-flow RTT / loss")) {
    const auto srtt = metrics.histograms().find("tcp.flow_srtt_ms");
    if (srtt != metrics.histograms().end() && srtt->second.count() > 0) {
      const Histogram& h = srtt->second;
      std::fprintf(out,
                   "  flow srtt: p50 %.4g ms, p90 %.4g ms, p99 %.4g "
                   "ms (over %.0f flow snapshots)\n",
                   histogram_quantile(h, 0.5), histogram_quantile(h, 0.9),
                   histogram_quantile(h, 0.99), static_cast<double>(h.count()));
    }
  }
  print_counters(out, metrics, "net.", "links");
  // Hybrid fluid/packet background (WEHEY_BG_MODE=fluid): only runs that
  // produced fluid counters have the section.
  print_counters(out, metrics, "fluid.", "fluid background");

  if (!r.profile.empty()) {
    print_rule(out, "stage profile (sim time, self = minus children)");
    std::fprintf(out, "  %-24s %6s %12s %12s\n", "stage", "count",
                 "sim ms", "self ms");
  }
  for (const ProfileEntry& e : r.profile) {
    std::fprintf(out, "  %-24s %6.0f %12.3f %12.3f\n", e.name.c_str(),
                 static_cast<double>(e.count), e.sim_ms, e.self_sim_ms);
  }

  if (!r.injection.empty()) {
    print_rule(out, "fault injection");
    int total = 0;
    for (const auto& [kind, n] : r.injection) {
      std::fprintf(out, "  %-28s %10d\n", kind.c_str(), n);
      total += n;
    }
    std::fprintf(out, "  %-28s %10d\n", "total", total);
  }
}

// ----------------------------------------------------------- sweep render

/// One row of a {"count","min","max","mean","sum","p50","p90","p99"}
/// summary object (sweep-report "values"/"stages" sections).
void print_summary_row(std::FILE* out, const std::string& name,
                       const JsonValue& s, int name_width) {
  std::fprintf(out, "  %-*s %6.0f %11.4g %11.4g %11.4g %11.4g %11.4g\n",
               name_width, name.c_str(), s.at("count").num_or(0),
               s.at("min").num_or(0), s.at("mean").num_or(0),
               s.at("p50").num_or(0), s.at("p90").num_or(0),
               s.at("max").num_or(0));
}

void print_summary_header(std::FILE* out, const char* what, int name_width) {
  std::fprintf(out, "  %-*s %6s %11s %11s %11s %11s %11s\n", name_width,
               what, "count", "min", "mean", "p50", "p90", "max");
}

void print_tally(std::FILE* out, const JsonValue& doc, const char* key,
                 const char* title) {
  const JsonValue& tally = doc.at(key);
  if (tally.object.empty()) return;
  print_rule(out, title);
  for (const auto& [name, n] : tally.object) {
    std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), n.num_or(0));
  }
}

/// "  key=N" for each member of a tally object.
void print_inline_tally(std::FILE* out, const JsonValue& tally) {
  for (const auto& [key, n] : tally.object) {
    std::fprintf(out, "  %s=%.0f", key.c_str(), n.num_or(0));
  }
}

void render_sweep(const JsonValue& doc, std::FILE* out) {
  std::fprintf(out, "sweep report  %s\n", doc.at("schema").str.c_str());
  std::fprintf(out, "  sweep      %s\n", doc.at("sweep").str.c_str());
  std::fprintf(out, "  runs       %.0f\n", doc.at("runs").num_or(0));

  print_tally(out, doc, "verdicts", "verdicts");
  print_tally(out, doc, "fault_plans", "fault plans");
  print_tally(out, doc, "reasons", "reasons");
  print_tally(out, doc, "injection", "fault injection (all runs)");

  const JsonValue& stages = doc.at("stages");
  if (!stages.object.empty()) {
    print_rule(out, "stages (per-run sim ms)");
    print_summary_header(out, "stage", 24);
    for (const auto& [name, s] : stages.object) {
      print_summary_row(out, name, s, 24);
    }
  }

  const JsonValue& profile = doc.at("profile");
  if (!profile.object.empty()) {
    print_rule(out, "stage profile (self sim ms across runs)");
    std::fprintf(out, "  %-24s %6s %11s %11s %11s %11s\n", "stage", "spans",
                 "self mean", "self p50", "self p90", "self max");
    for (const auto& [name, e] : profile.object) {
      const JsonValue& self = e.at("self_sim_ms");
      std::fprintf(out, "  %-24s %6.0f %11.4g %11.4g %11.4g %11.4g\n",
                   name.c_str(), e.at("spans").num_or(0),
                   self.at("mean").num_or(0), self.at("p50").num_or(0),
                   self.at("p90").num_or(0), self.at("max").num_or(0));
    }
  }

  const JsonValue& values = doc.at("values");
  if (!values.object.empty()) {
    print_rule(out, "values (across runs)");
    print_summary_header(out, "value", 28);
    for (const auto& [name, s] : values.object) {
      print_summary_row(out, name, s, 28);
    }
  }

  const JsonValue& cells = doc.at("cells");
  if (!cells.object.empty()) {
    print_rule(out, "grid cells");
    for (const auto& [name, cell] : cells.object) {
      std::fprintf(out, "  %-24s %6.0f runs", name.c_str(),
                   cell.at("runs").num_or(0));
      print_inline_tally(out, cell.at("verdicts"));
      std::fputc('\n', out);
    }
  }

  // Quarantined cells: repeated budget-exhausted (crash-equivalent) runs.
  const JsonValue& quarantine = doc.at("quarantine");
  if (!quarantine.at("cells").object.empty()) {
    char title[80];
    std::snprintf(title, sizeof(title),
                  "QUARANTINED cells (>= %.0f budget-exhausted runs)",
                  quarantine.at("threshold").num_or(0));
    print_rule(out, title);
    for (const auto& [name, q] : quarantine.at("cells").object) {
      std::fprintf(out, "  %-24s %6.0f poisoned", name.c_str(),
                   q.at("poisoned_runs").num_or(0));
      print_inline_tally(out, q.at("reasons"));
      std::fputc('\n', out);
    }
  }

  // Knife-edge cells: minimum |decision margin| under the gate threshold.
  const JsonValue& knife = doc.at("knife_edge");
  if (const JsonValue* kcells = knife.find("cells")) {
    char title[80];
    std::snprintf(title, sizeof(title),
                  "KNIFE-EDGE cells (min |margin| < %.4g)",
                  knife.at("margin_threshold").num_or(0));
    print_rule(out, title);
    if (kcells->object.empty()) {
      std::fprintf(out, "  (none — every cell's verdicts are stable)\n");
    }
    for (const auto& [name, k] : kcells->object) {
      std::fprintf(out, "  %-24s min margin %10.4g  (%.0f runs below)\n",
                   name.c_str(), k.at("min_margin").num_or(0),
                   k.at("runs_below").num_or(0));
    }
  }

  // Verdict audit: confusion matrices vs the configured ground truth.
  // Absent when no absorbed run carried an audit.
  const JsonValue& audit = doc.at("audit");
  if (audit.type == JsonValue::Type::Object) {
    print_rule(out, "AUDIT (verdict vs ground truth; * = knife-edge cell)");
    std::fprintf(out, "  %-24s %5s %5s %5s %5s %5s %9s %9s %9s\n", "cell",
                 "tp", "fp", "fn", "tn", "skip", "accuracy", "precision",
                 "recall");
    const auto print_matrix = [out](const std::string& label,
                                    const JsonValue& m, bool knife_edge) {
      std::fprintf(
          out, "  %-24s %5.0f %5.0f %5.0f %5.0f %5.0f %9.4g %9.4g %9.4g\n",
          (label + (knife_edge ? " *" : "")).c_str(), m.at("tp").num_or(0),
          m.at("fp").num_or(0), m.at("fn").num_or(0), m.at("tn").num_or(0),
          m.at("skipped").num_or(0), m.at("accuracy").num_or(0),
          m.at("precision").num_or(0), m.at("recall").num_or(0));
    };
    for (const auto& [name, m] : audit.at("cells").object) {
      print_matrix(name, m, m.at("knife_edge").boolean);
    }
    if (const JsonValue* grid = audit.find("grid")) {
      print_matrix("(grid)", *grid, false);
      if (!grid->at("mismatch_reasons").object.empty()) {
        std::fprintf(out, "  mismatches:");
        print_inline_tally(out, grid->at("mismatch_reasons"));
        std::fputc('\n', out);
      }
    }
  }

  const JsonValue& percentiles = doc.at("percentiles");
  if (!percentiles.object.empty()) {
    print_rule(out, "histogram percentiles (merged bins)");
    std::fprintf(out, "  %-28s %11s %11s %11s\n", "histogram", "p50", "p90",
                 "p99");
    for (const auto& [name, p] : percentiles.object) {
      std::fprintf(out, "  %-28s %11.4g %11.4g %11.4g\n", name.c_str(),
                   p.at("p50").num_or(0), p.at("p90").num_or(0),
                   p.at("p99").num_or(0));
    }
  }

  // Fluid-background totals across the sweep (WEHEY_BG_MODE=fluid).
  // Absent on packet-mode sweeps.
  bool fluid = false;
  for (const auto& [name, v] : doc.at("metrics").at("counters").object) {
    if (name.rfind("fluid.", 0) != 0) continue;
    if (!fluid) print_rule(out, "fluid background (all runs)");
    fluid = true;
    std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), v.num_or(0));
  }
}

// ----------------------------------------------------------- trace render

void render_trace(const JsonValue& doc, std::FILE* out) {
  struct SpanStats {
    std::vector<double> durs_us;
    double total_us = 0;
  };
  std::map<std::string, SpanStats> spans;
  std::map<std::string, std::size_t> instants;
  struct CounterStats {
    std::size_t samples = 0;
    double min = 0, max = 0, last = 0;
  };
  std::map<std::string, CounterStats> counters;
  std::size_t total = 0;

  for (const auto& ev : doc.at("traceEvents").array) {
    const std::string& ph = ev.at("ph").str;
    const std::string& name = ev.at("name").str;
    if (ph == "M") continue;  // metadata
    ++total;
    if (ph == "X") {
      const double dur = ev.at("dur").num_or(0);
      auto& s = spans[name];
      s.durs_us.push_back(dur);
      s.total_us += dur;
    } else if (ph == "C") {
      const double v = ev.at("args").at("value").num_or(0);
      auto& c = counters[name];
      if (c.samples == 0 || v < c.min) c.min = v;
      if (c.samples == 0 || v > c.max) c.max = v;
      c.last = v;
      ++c.samples;
    } else {
      ++instants[name];
    }
  }

  std::fprintf(out, "trace  %zu events\n", total);

  if (!spans.empty()) {
    print_rule(out, "stage latency (span durations, sim ms)");
    std::fprintf(out, "  %-28s %8s %10s %10s %10s %10s\n", "span", "count",
                 "p50", "p90", "p99", "total");
    for (auto& [name, s] : spans) {
      std::sort(s.durs_us.begin(), s.durs_us.end());
      const auto pct = [&s](double q) {
        const std::size_t n = s.durs_us.size();
        std::size_t idx = static_cast<std::size_t>(q * (n - 1) + 0.5);
        if (idx >= n) idx = n - 1;
        return s.durs_us[idx] / 1000.0;  // us -> ms
      };
      std::fprintf(out, "  %-28s %8zu %10.4g %10.4g %10.4g %10.4g\n",
                   name.c_str(), s.durs_us.size(), pct(0.5), pct(0.9),
                   pct(0.99), s.total_us / 1000.0);
    }
  }

  if (!counters.empty()) {
    print_rule(out, "counter series");
    std::fprintf(out, "  %-28s %8s %10s %10s %10s\n", "series", "samples",
                 "min", "max", "last");
    for (const auto& [name, c] : counters) {
      std::fprintf(out, "  %-28s %8zu %10.4g %10.4g %10.4g\n", name.c_str(),
                   c.samples, c.min, c.max, c.last);
    }
  }

  if (!instants.empty()) {
    print_rule(out, "instant events");
    for (const auto& [name, n] : instants) {
      std::fprintf(out, "  %-28s %8zu\n", name.c_str(), n);
    }
  }
}

// --------------------------------------------------------- journal render

/// Render a wehey.sweep_checkpoint.v1 JSONL journal: completed-run count
/// plus per-cell verdict tallies of the embedded reports. False when
/// `path` does not load as a non-empty journal.
bool render_checkpoint_journal(const std::string& path, std::FILE* out) {
  CheckpointJournal journal;
  if (!CheckpointJournal::load(path, journal) || journal.empty()) {
    return false;
  }
  std::fprintf(out, "checkpoint journal  %s\n", kSweepCheckpointSchema);
  std::fprintf(out, "  sweep      %s\n", journal.sweep().c_str());
  std::fprintf(out, "  completed  %zu runs\n", journal.size());
  struct CellTally {
    std::size_t runs = 0;
    std::map<std::string, std::size_t> verdicts;
  };
  std::map<std::string, CellTally> cells;
  for (const auto& entry : journal.entries()) {
    auto& cell = cells[entry.cell.empty() ? "(none)" : entry.cell];
    ++cell.runs;
    JsonValue doc;
    RunReport report;
    MetricsRegistry metrics;
    if (json_parse(entry.report_json, doc) &&
        RunReport::from_json(doc, report, metrics)) {
      ++cell.verdicts[report.verdict];
    }
  }
  print_rule(out, "cells (completed runs)");
  for (const auto& [name, cell] : cells) {
    std::fprintf(out, "  %-24s %6zu runs", name.c_str(), cell.runs);
    for (const auto& [verdict, n] : cell.verdicts) {
      std::fprintf(out, "  %s=%zu", verdict.c_str(), n);
    }
    std::fputc('\n', out);
  }
  return true;
}

// --------------------------------------------------------- runtime render

/// A serialized histogram object ({"lo", "hi", "count", "min", "max",
/// "bins"}) of a runtime sidecar, read for its quantiles.
struct SidecarHistogram {
  double lo = 0;
  double hi = 1;
  double min = 0;
  double max = 0;
  std::uint64_t count = 0;
  std::vector<std::uint64_t> bins;

  /// False unless the count and every bin are whole numbers in range
  /// (JsonValue::integer), so no out-of-range double is ever cast.
  bool read(const JsonValue& h) {
    lo = h.at("lo").num_or(0);
    hi = h.at("hi").num_or(1);
    min = h.at("min").num_or(0);
    max = h.at("max").num_or(0);
    if (!h.at("count").integer(count)) return false;
    for (const auto& v : h.at("bins").array) {
      if (!v.integer(bins.emplace_back())) return false;
    }
    return true;
  }

  double quantile(double q) const {
    return histogram_quantile(lo, hi, count, min, max, bins, q);
  }
};

/// Worker table, scheduler-efficiency metrics and latency percentiles of
/// a runtime sidecar. Both latency histograms are read before anything is
/// printed: a malformed one fails the document with no partial output.
bool render_runtime(const JsonValue& doc, std::FILE* out,
                    std::string& error) {
  const JsonValue* sched = doc.find("scheduler");
  const JsonValue* trials = doc.find("trials");
  SidecarHistogram lat;
  SidecarHistogram wall;
  if (sched != nullptr && !lat.read(sched->at("submit_to_start_us"))) {
    error = "malformed histogram 'scheduler.submit_to_start_us'";
    return false;
  }
  if (trials != nullptr && !wall.read(trials->at("wall_ms"))) {
    error = "malformed histogram 'trials.wall_ms'";
    return false;
  }
  std::fprintf(out, "runtime report  %s\n", doc.at("schema").str.c_str());
  std::fprintf(out, "  run          %s\n", doc.at("run").str.c_str());
  std::fprintf(out, "  wall         %.3f s\n",
               doc.at("wall_seconds").num_or(0));
  if (const JsonValue* threads = doc.find("threads")) {
    std::fprintf(out,
                 "  threads      configured=%.0f hardware=%.0f "
                 "contexts=%.0f%s\n",
                 threads->at("configured").num_or(0),
                 threads->at("hardware").num_or(0),
                 threads->at("contexts").num_or(0),
                 threads->at("oversubscribed").boolean ? " OVERSUBSCRIBED"
                                                       : "");
  }

  const std::vector<JsonValue>& workers = doc.at("workers").array;
  if (!workers.empty()) {
    print_rule(out, "workers (wall-clock; busy = running chunks)");
    std::fprintf(out, "  %3s  %-6s  %10s  %10s  %10s  %8s  %8s\n", "id",
                 "kind", "busy_ms", "idle_ms", "wait_ms", "chunks", "tasks");
    for (const JsonValue& w : workers) {
      std::fprintf(out, "  %3.0f  %-6s  %10.1f  %10.1f  %10.1f  %8.0f  %8.0f\n",
                   w.at("id").num_or(0), w.at("kind").str.c_str(),
                   w.at("busy_ms").num_or(0), w.at("idle_ms").num_or(0),
                   w.at("wait_ms").num_or(0), w.at("chunks").num_or(0),
                   w.at("tasks").num_or(0));
    }
  }

  if (sched != nullptr) {
    print_rule(out, "scheduler");
    std::fprintf(out, "  jobs                 %.0f\n",
                 sched->at("jobs").num_or(0));
    std::fprintf(out, "  tasks                %.0f\n",
                 sched->at("tasks").num_or(0));
    std::fprintf(out, "  queue high-water     %.0f\n",
                 sched->at("queue_depth_high_water").num_or(0));
    std::fprintf(out, "  drain waits          %.0f\n",
                 sched->at("drain_waits").num_or(0));
    std::fprintf(out, "  parallel efficiency  %.3f\n",
                 sched->at("parallel_efficiency").num_or(0));
    std::fprintf(out, "  worker imbalance     %.3f\n",
                 sched->at("worker_imbalance").num_or(0));
    std::fprintf(out, "  wait fraction        %.3f\n",
                 sched->at("wait_fraction").num_or(0));
    std::fprintf(out, "  idle fraction        %.3f\n",
                 sched->at("idle_fraction").num_or(0));
    if (lat.count > 0) {
      std::fprintf(out,
                   "  submit-to-start      p50=%.1fus p90=%.1fus p99=%.1fus "
                   "(n=%.0f)\n",
                   lat.quantile(0.50), lat.quantile(0.90), lat.quantile(0.99),
                   static_cast<double>(lat.count));
    }
  }

  if (trials != nullptr) {
    print_rule(out, "trials");
    std::fprintf(out, "  count        %.0f (supervised %.0f)\n",
                 trials->at("count").num_or(0),
                 trials->at("supervised").num_or(0));
    if (wall.count > 0) {
      std::fprintf(out,
                   "  wall         p50=%.1fms p90=%.1fms p99=%.1fms "
                   "max=%.1fms\n",
                   wall.quantile(0.50), wall.quantile(0.90),
                   wall.quantile(0.99), wall.max);
    }
  }

  if (const JsonValue* process = doc.find("process")) {
    print_rule(out, "process");
    std::fprintf(out, "  rss peak     %.0f KiB\n",
                 process->at("rss_peak_kb").num_or(0));
    std::fprintf(out, "  event heap   %.0f chunks, %.0f bytes\n",
                 process->at("event_heap_chunks").num_or(0),
                 process->at("event_heap_bytes").num_or(0));
  }
  return true;
}

}  // namespace

bool inspect_file(const std::string& path, std::FILE* out) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "inspect: cannot read %s\n", path.c_str());
    return false;
  }
  JsonValue doc;
  std::string error;
  if (!json_parse(text, doc, &error)) {
    // Not one JSON document — maybe a JSONL checkpoint journal.
    if (render_checkpoint_journal(path, out)) return true;
    std::fprintf(stderr, "inspect: %s: parse error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  if (is_run_report(doc)) {
    RunReport report;
    MetricsRegistry metrics;
    if (!RunReport::from_json(doc, report, metrics, &error)) {
      std::fprintf(stderr, "inspect: %s: %s\n", path.c_str(), error.c_str());
      return false;
    }
    render_report(report, metrics, out);
    return true;
  }
  if (has_schema(doc, kSweepReportSchema)) {
    render_sweep(doc, out);
    return true;
  }
  if (doc.at("traceEvents").type == JsonValue::Type::Array) {
    render_trace(doc, out);
    return true;
  }
  if (is_runtime_report(doc)) {
    if (!render_runtime(doc, out, error)) {
      std::fprintf(stderr, "inspect: %s: %s\n", path.c_str(), error.c_str());
      return false;
    }
    return true;
  }
  // A one-line journal parses as a single checkpoint entry.
  if (has_schema(doc, kSweepCheckpointSchema) &&
      render_checkpoint_journal(path, out)) {
    return true;
  }
  std::fprintf(stderr,
               "inspect: %s: neither a wehey report of a version this build "
               "writes (run, sweep, runtime sidecar or checkpoint journal) "
               "nor a chrome trace\n",
               path.c_str());
  return false;
}

}  // namespace wehey::obs
