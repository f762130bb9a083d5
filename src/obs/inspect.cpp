#include "obs/inspect.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "obs/aggregate.hpp"
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
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::rewind(f);
  out.resize(len > 0 ? static_cast<std::size_t>(len) : 0);
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  out.resize(got);
  return true;
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

bool is_chrome_trace(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  return events != nullptr && events->type == JsonValue::Type::Array;
}

bool is_runtime_report(const JsonValue& doc) {
  return has_schema(doc, kRuntimeReportSchema);
}

// ---------------------------------------------------------- report render

namespace {

/// histogram_quantile over a serialized histogram object (the registry
/// layout: {"lo", "hi", "count", "sum", "min", "max", "bins"}).
double json_quantile(const JsonValue& h, double q) {
  const auto field = [&h](const char* key, double fallback) {
    const JsonValue* v = h.find(key);
    return v != nullptr ? v->num_or(fallback) : fallback;
  };
  const auto tally = [](double v) {
    return static_cast<std::uint64_t>(std::max(v, 0.0));
  };
  std::vector<std::uint64_t> bins;
  if (const JsonValue* b = h.find("bins")) {
    for (const auto& v : b->array) bins.push_back(tally(v.num_or(0)));
  }
  return histogram_quantile(field("lo", 0), field("hi", 1),
                            tally(field("count", 0)), field("min", 0),
                            field("max", 0), bins, q);
}

const char* str_or(const JsonValue& doc, const char* key,
                   const char* fallback = "") {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->type == JsonValue::Type::String ? v->str.c_str()
                                                            : fallback;
}

void print_rule(std::FILE* out, const char* title) {
  std::fprintf(out, "\n%s\n", title);
  for (const char* c = title; *c != 0; ++c) std::fputc('-', out);
  std::fputc('\n', out);
}

/// Counters whose names start with `prefix`, in registry (sorted) order.
std::vector<std::pair<std::string, double>> counters_with_prefix(
    const JsonValue& counters, const std::string& prefix) {
  std::vector<std::pair<std::string, double>> out;
  if (counters.type != JsonValue::Type::Object) return out;
  for (const auto& [name, v] : counters.object) {
    if (name.rfind(prefix, 0) == 0) out.emplace_back(name, v.num_or(0));
  }
  return out;
}

}  // namespace

void render_report(const JsonValue& doc, std::FILE* out) {
  std::fprintf(out, "run report  %s\n", str_or(doc, "schema"));
  std::fprintf(out, "  run        %s\n", str_or(doc, "run"));
  const JsonValue* seed = doc.find("seed");
  if (seed != nullptr) {
    std::fprintf(out, "  seed       %.0f\n", seed->num_or(0));
  }
  const char* plan = str_or(doc, "fault_plan");
  std::fprintf(out, "  fault plan %s\n", plan[0] != 0 ? plan : "(none)");
  std::fprintf(out, "  verdict    %s\n", str_or(doc, "verdict"));
  const char* reason = str_or(doc, "reason");
  if (reason[0] != 0) std::fprintf(out, "  reason     %s\n", reason);

  // Verdict provenance. Every section below is skipped when missing.
  const JsonValue* decision = doc.find("decision");
  if (decision != nullptr && decision->type == JsonValue::Type::Object) {
    print_rule(out, "decision (margin < 0 would flip; |margin| ~ 0 = knife-edge)");
    const JsonValue* evaluated = decision->find("evaluated");
    std::fprintf(out, "  evaluated      %s\n",
                 evaluated != nullptr && evaluated->boolean ? "yes"
                                                           : "no (pre-analysis)");
    if (const JsonValue* margin = decision->find("margin")) {
      std::fprintf(out, "  verdict margin %.4g\n", margin->num_or(0));
    }
    const JsonValue* detectors = decision->find("detectors");
    if (detectors != nullptr && !detectors->array.empty()) {
      std::fprintf(out, "  %-18s %11s %11s %11s %8s %6s\n", "detector",
                   "statistic", "threshold", "margin", "outcome", "valid");
      for (const auto& d : detectors->array) {
        const auto field = [&d](const char* key) {
          const JsonValue* v = d.find(key);
          return v != nullptr ? v->num_or(0) : 0.0;
        };
        const JsonValue* outcome = d.find("outcome");
        const JsonValue* valid = d.find("valid");
        std::fprintf(out, "  %-18s %11.4g %11.4g %11.4g %8s %6s",
                     str_or(d, "name"), field("statistic"), field("threshold"),
                     field("margin"),
                     outcome != nullptr && outcome->boolean ? "fired" : "no",
                     valid != nullptr && valid->boolean ? "yes" : "NO");
        if (d.find("rho") != nullptr) {
          std::fprintf(out, "  rho=%.4g sigma=%.4g ms", field("rho"),
                       field("sigma_ms"));
        }
        std::fputc('\n', out);
      }
    }
    const JsonValue* agg = decision->find("aggregation");
    if (agg != nullptr && agg->type == JsonValue::Type::Object) {
      const auto field = [&agg](const char* key) {
        const JsonValue* v = agg->find(key);
        return v != nullptr ? v->num_or(0) : 0.0;
      };
      const JsonValue* outcome = agg->find("outcome");
      std::fprintf(out,
                   "  aggregation    %.0f/%.0f sizes correlated (%.0f valid) "
                   "vs threshold %.4g -> %s (margin %.4g)\n",
                   field("sizes_correlated"), field("sizes_tested"),
                   field("sizes_valid"), field("threshold"),
                   outcome != nullptr && outcome->boolean ? "common bottleneck"
                                                          : "no",
                   field("margin"));
    }
    const JsonValue* degradations = decision->find("degradations");
    if (degradations != nullptr && !degradations->array.empty()) {
      std::fprintf(out, "  degradations  ");
      for (const auto& deg : degradations->array) {
        std::fprintf(out, " %s", deg.str.c_str());
      }
      std::fputc('\n', out);
    }
  }

  // Ground truth + audit: only runners that know their ground truth
  // emit them.
  const JsonValue* truth = doc.find("ground_truth");
  if (truth != nullptr && truth->type == JsonValue::Type::Object) {
    print_rule(out, "audit (verdict vs configured ground truth)");
    const auto flag = [&truth](const char* key) {
      const JsonValue* v = truth->find(key);
      return v != nullptr && v->boolean;
    };
    std::fprintf(out, "  truth          %s",
                 flag("differentiated") ? str_or(*truth, "mechanism")
                                        : "no differentiation");
    if (flag("differentiated")) {
      std::fprintf(out, " @ %s (%s target area)",
                   str_or(*truth, "placement"),
                   flag("within_target_area") ? "within" : "outside");
      if (const JsonValue* rate = truth->find("rate_bps");
          rate != nullptr && rate->num_or(0) > 0) {
        std::fprintf(out, ", rate %.4g bps", rate->num_or(0));
      }
      if (const JsonValue* act = truth->find("activation_bytes");
          act != nullptr && act->num_or(0) > 0) {
        std::fprintf(out, ", activates after %.0f bytes", act->num_or(0));
      }
    }
    if (flag("sanity_check")) std::fprintf(out, "  [sanity check]");
    std::fputc('\n', out);
    const JsonValue* audit = doc.find("audit");
    if (audit != nullptr && audit->type == JsonValue::Type::Object) {
      const auto aflag = [&audit](const char* key) {
        const JsonValue* v = audit->find(key);
        return v != nullptr && v->boolean;
      };
      std::fprintf(out, "  expected       %s\n",
                   aflag("expected_positive") ? "positive" : "negative");
      std::fprintf(out, "  observed       %s\n",
                   aflag("observed_positive") ? "positive" : "negative");
      const char* reason = str_or(*audit, "mismatch_reason");
      std::fprintf(out, "  classification %s", str_or(*audit, "classification"));
      if (reason[0] != 0) std::fprintf(out, "  (%s)", reason);
      std::fputc('\n', out);
    }
  }

  const JsonValue* stages = doc.find("stages");
  if (stages != nullptr && !stages->array.empty()) {
    print_rule(out, "stages (sim time)");
    for (const auto& st : stages->array) {
      const JsonValue* ms = st.find("sim_ms");
      const JsonValue* wall = st.find("wall_ms");
      std::fprintf(out, "  %-24s %12.3f ms", str_or(st, "name"),
                   ms != nullptr ? ms->num_or(0) : 0.0);
      if (wall != nullptr) {
        std::fprintf(out, "  (wall %.3f ms)", wall->num_or(0));
      }
      std::fputc('\n', out);
    }
  }

  const JsonValue* metrics = doc.find("metrics");
  const JsonValue* histograms =
      metrics != nullptr ? metrics->find("histograms") : nullptr;
  const JsonValue* counters =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  const JsonValue* percentiles = doc.find("percentiles");

  if (histograms != nullptr && !histograms->object.empty()) {
    print_rule(out, "latency percentiles (from histogram bins)");
    std::fprintf(out, "  %-28s %10s %10s %10s %10s %10s\n", "histogram",
                 "count", "p50", "p90", "p99", "max");
    for (const auto& [name, h] : histograms->object) {
      const double count = h.find("count") ? h.find("count")->num_or(0) : 0;
      if (count <= 0) continue;
      const JsonValue* pre =
          percentiles != nullptr ? percentiles->find(name) : nullptr;
      const auto pct = [pre](const char* key) {
        const JsonValue* v = pre != nullptr ? pre->find(key) : nullptr;
        return v != nullptr ? v->num_or(0) : 0.0;
      };
      const double hmax = h.find("max") ? h.find("max")->num_or(0) : 0;
      std::fprintf(out, "  %-28s %10.0f %10.4g %10.4g %10.4g %10.4g\n",
                   name.c_str(), count, pct("p50"), pct("p90"), pct("p99"),
                   hmax);
    }
  }

  if (counters != nullptr) {
    const auto queue_drops = counters_with_prefix(*counters, "queue.");
    if (!queue_drops.empty()) {
      print_rule(out, "queue drops by reason");
      for (const auto& [name, v] : queue_drops) {
        if (name.find(".drop.") == std::string::npos) continue;
        std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), v);
      }
    }
    const auto flows = counters_with_prefix(*counters, "tcp.");
    if (!flows.empty()) {
      print_rule(out, "per-flow RTT / loss");
      for (const auto& [name, v] : flows) {
        std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), v);
      }
      if (histograms != nullptr) {
        const JsonValue* srtt = histograms->find("tcp.flow_srtt_ms");
        if (srtt != nullptr && srtt->find("count") != nullptr &&
            srtt->find("count")->num_or(0) > 0) {
          std::fprintf(out,
                       "  flow srtt: p50 %.4g ms, p90 %.4g ms, p99 %.4g "
                       "ms (over %.0f flow snapshots)\n",
                       json_quantile(*srtt, 0.5), json_quantile(*srtt, 0.9),
                       json_quantile(*srtt, 0.99),
                       srtt->find("count")->num_or(0));
        }
      }
    }
    const auto links = counters_with_prefix(*counters, "net.");
    if (!links.empty()) {
      print_rule(out, "links");
      for (const auto& [name, v] : links) {
        std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), v);
      }
    }
    // Hybrid fluid/packet background (WEHEY_BG_MODE=fluid). The section
    // only exists when the run produced fluid counters, so pre-fluid
    // reports render byte-identically.
    const auto fluid = counters_with_prefix(*counters, "fluid.");
    if (!fluid.empty()) {
      print_rule(out, "fluid background");
      for (const auto& [name, v] : fluid) {
        std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), v);
      }
    }
  }

  const JsonValue* profile = doc.find("profile");
  if (profile != nullptr && !profile->object.empty()) {
    print_rule(out, "stage profile (sim time, self = minus children)");
    std::fprintf(out, "  %-24s %6s %12s %12s %12s %12s\n", "stage", "count",
                 "sim ms", "self ms", "wall ms", "self wall");
    for (const auto& [name, e] : profile->object) {
      const JsonValue* wall = e.find("wall_ms");
      const JsonValue* self_wall = e.find("self_wall_ms");
      std::fprintf(out, "  %-24s %6.0f %12.3f %12.3f",
                   name.c_str(),
                   e.find("count") ? e.find("count")->num_or(0) : 0.0,
                   e.find("sim_ms") ? e.find("sim_ms")->num_or(0) : 0.0,
                   e.find("self_sim_ms") ? e.find("self_sim_ms")->num_or(0)
                                         : 0.0);
      if (wall != nullptr) {
        std::fprintf(out, " %12.3f", wall->num_or(0));
      } else {
        std::fprintf(out, " %12s", "-");
      }
      if (self_wall != nullptr) {
        std::fprintf(out, " %12.3f", self_wall->num_or(0));
      } else {
        std::fprintf(out, " %12s", "-");
      }
      std::fputc('\n', out);
    }
  }

  const JsonValue* injection = doc.find("injection");
  if (injection != nullptr && !injection->object.empty()) {
    print_rule(out, "fault injection");
    for (const auto& [kind, n] : injection->object) {
      std::fprintf(out, "  %-28s %10.0f\n", kind.c_str(), n.num_or(0));
    }
  }
}

// ----------------------------------------------------------- sweep render

namespace {

/// One row of a {"count","min","max","mean","sum","p50","p90","p99"}
/// summary object (sweep-report "values"/"stages" sections).
void print_summary_row(std::FILE* out, const std::string& name,
                       const JsonValue& s, int name_width) {
  const auto field = [&s](const char* key) {
    const JsonValue* v = s.find(key);
    return v != nullptr ? v->num_or(0) : 0.0;
  };
  std::fprintf(out, "  %-*s %6.0f %11.4g %11.4g %11.4g %11.4g %11.4g\n",
               name_width, name.c_str(), field("count"), field("min"),
               field("mean"), field("p50"), field("p90"), field("max"));
}

void print_summary_header(std::FILE* out, const char* what, int name_width) {
  std::fprintf(out, "  %-*s %6s %11s %11s %11s %11s %11s\n", name_width,
               what, "count", "min", "mean", "p50", "p90", "max");
}

void print_tally(std::FILE* out, const JsonValue& doc, const char* key,
                 const char* title) {
  const JsonValue* tally = doc.find(key);
  if (tally == nullptr || tally->object.empty()) return;
  print_rule(out, title);
  for (const auto& [name, n] : tally->object) {
    std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), n.num_or(0));
  }
}

}  // namespace

void render_sweep(const JsonValue& doc, std::FILE* out) {
  std::fprintf(out, "sweep report  %s\n", str_or(doc, "schema"));
  std::fprintf(out, "  sweep      %s\n", str_or(doc, "sweep"));
  const JsonValue* runs = doc.find("runs");
  std::fprintf(out, "  runs       %.0f\n",
               runs != nullptr ? runs->num_or(0) : 0.0);

  print_tally(out, doc, "verdicts", "verdicts");
  print_tally(out, doc, "fault_plans", "fault plans");
  print_tally(out, doc, "reasons", "reasons");
  print_tally(out, doc, "injection", "fault injection (all runs)");

  const JsonValue* stages = doc.find("stages");
  if (stages != nullptr && !stages->object.empty()) {
    print_rule(out, "stages (per-run sim ms)");
    print_summary_header(out, "stage", 24);
    for (const auto& [name, s] : stages->object) {
      print_summary_row(out, name, s, 24);
    }
  }

  const JsonValue* profile = doc.find("profile");
  if (profile != nullptr && !profile->object.empty()) {
    print_rule(out, "stage profile (self sim ms across runs)");
    std::fprintf(out, "  %-24s %6s %11s %11s %11s %11s\n", "stage", "spans",
                 "self mean", "self p50", "self p90", "self max");
    for (const auto& [name, e] : profile->object) {
      const JsonValue* self = e.find("self_sim_ms");
      const auto field = [&self](const char* key) {
        const JsonValue* v = self != nullptr ? self->find(key) : nullptr;
        return v != nullptr ? v->num_or(0) : 0.0;
      };
      std::fprintf(out, "  %-24s %6.0f %11.4g %11.4g %11.4g %11.4g\n",
                   name.c_str(),
                   e.find("spans") ? e.find("spans")->num_or(0) : 0.0,
                   field("mean"), field("p50"), field("p90"), field("max"));
    }
  }

  const JsonValue* values = doc.find("values");
  if (values != nullptr && !values->object.empty()) {
    print_rule(out, "values (across runs)");
    print_summary_header(out, "value", 28);
    for (const auto& [name, s] : values->object) {
      print_summary_row(out, name, s, 28);
    }
  }

  const JsonValue* cells = doc.find("cells");
  if (cells != nullptr && !cells->object.empty()) {
    print_rule(out, "grid cells");
    for (const auto& [name, cell] : cells->object) {
      const JsonValue* cell_runs = cell.find("runs");
      std::fprintf(out, "  %-24s %6.0f runs", name.c_str(),
                   cell_runs != nullptr ? cell_runs->num_or(0) : 0.0);
      const JsonValue* verdicts = cell.find("verdicts");
      if (verdicts != nullptr) {
        for (const auto& [verdict, n] : verdicts->object) {
          std::fprintf(out, "  %s=%.0f", verdict.c_str(), n.num_or(0));
        }
      }
      std::fputc('\n', out);
    }
  }

  // Quarantined cells: repeated budget-exhausted (crash-equivalent) runs.
  const JsonValue* quarantine = doc.find("quarantine");
  const JsonValue* qcells =
      quarantine != nullptr ? quarantine->find("cells") : nullptr;
  if (qcells != nullptr && !qcells->object.empty()) {
    const JsonValue* threshold = quarantine->find("threshold");
    char title[80];
    std::snprintf(title, sizeof(title),
                  "QUARANTINED cells (>= %.0f budget-exhausted runs)",
                  threshold != nullptr ? threshold->num_or(0) : 0.0);
    print_rule(out, title);
    for (const auto& [name, q] : qcells->object) {
      const JsonValue* poisoned = q.find("poisoned_runs");
      std::fprintf(out, "  %-24s %6.0f poisoned", name.c_str(),
                   poisoned != nullptr ? poisoned->num_or(0) : 0.0);
      const JsonValue* reasons = q.find("reasons");
      if (reasons != nullptr) {
        for (const auto& [reason, n] : reasons->object) {
          std::fprintf(out, "  %s=%.0f", reason.c_str(), n.num_or(0));
        }
      }
      std::fputc('\n', out);
    }
  }

  // Knife-edge cells: minimum |decision margin| under the gate threshold.
  const JsonValue* knife = doc.find("knife_edge");
  const JsonValue* kcells = knife != nullptr ? knife->find("cells") : nullptr;
  if (kcells != nullptr) {
    const JsonValue* threshold = knife->find("margin_threshold");
    char title[80];
    std::snprintf(title, sizeof(title),
                  "KNIFE-EDGE cells (min |margin| < %.4g)",
                  threshold != nullptr ? threshold->num_or(0) : 0.0);
    print_rule(out, title);
    if (kcells->object.empty()) {
      std::fprintf(out, "  (none — every cell's verdicts are stable)\n");
    }
    for (const auto& [name, k] : kcells->object) {
      const JsonValue* min_margin = k.find("min_margin");
      const JsonValue* below = k.find("runs_below");
      std::fprintf(out, "  %-24s min margin %10.4g  (%.0f runs below)\n",
                   name.c_str(),
                   min_margin != nullptr ? min_margin->num_or(0) : 0.0,
                   below != nullptr ? below->num_or(0) : 0.0);
    }
  }

  // Verdict audit: confusion matrices vs the configured ground truth.
  // Absent when no absorbed run carried an audit.
  const JsonValue* audit = doc.find("audit");
  if (audit != nullptr && audit->type == JsonValue::Type::Object) {
    print_rule(out, "AUDIT (verdict vs ground truth; * = knife-edge cell)");
    std::fprintf(out, "  %-24s %5s %5s %5s %5s %5s %9s %9s %9s\n", "cell",
                 "tp", "fp", "fn", "tn", "skip", "accuracy", "precision",
                 "recall");
    const auto print_matrix = [out](const std::string& label,
                                    const JsonValue& m, bool knife) {
      const auto field = [&m](const char* key) {
        const JsonValue* v = m.find(key);
        return v != nullptr ? v->num_or(0) : 0.0;
      };
      std::fprintf(out, "  %-24s %5.0f %5.0f %5.0f %5.0f %5.0f %9.4g %9.4g %9.4g\n",
                   (label + (knife ? " *" : "")).c_str(), field("tp"),
                   field("fp"), field("fn"), field("tn"), field("skipped"),
                   field("accuracy"), field("precision"), field("recall"));
    };
    if (const JsonValue* acells = audit->find("cells");
        acells != nullptr && acells->type == JsonValue::Type::Object) {
      for (const auto& [name, m] : acells->object) {
        const JsonValue* k = m.find("knife_edge");
        print_matrix(name, m, k != nullptr && k->boolean);
      }
    }
    if (const JsonValue* grid = audit->find("grid");
        grid != nullptr && grid->type == JsonValue::Type::Object) {
      print_matrix("(grid)", *grid, false);
      if (const JsonValue* reasons = grid->find("mismatch_reasons");
          reasons != nullptr && !reasons->object.empty()) {
        std::fprintf(out, "  mismatches:");
        for (const auto& [reason, n] : reasons->object) {
          std::fprintf(out, "  %s=%.0f", reason.c_str(), n.num_or(0));
        }
        std::fputc('\n', out);
      }
    }
  }

  const JsonValue* percentiles = doc.find("percentiles");
  if (percentiles != nullptr && !percentiles->object.empty()) {
    print_rule(out, "histogram percentiles (merged bins)");
    std::fprintf(out, "  %-28s %11s %11s %11s\n", "histogram", "p50", "p90",
                 "p99");
    for (const auto& [name, p] : percentiles->object) {
      const auto field = [&p](const char* key) {
        const JsonValue* v = p.find(key);
        return v != nullptr ? v->num_or(0) : 0.0;
      };
      std::fprintf(out, "  %-28s %11.4g %11.4g %11.4g\n", name.c_str(),
                   field("p50"), field("p90"), field("p99"));
    }
  }

  // Fluid-background totals across the sweep (WEHEY_BG_MODE=fluid).
  // Absent on packet-mode sweeps, so pre-fluid reports are unchanged.
  const JsonValue* metrics = doc.find("metrics");
  const JsonValue* counters =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  if (counters != nullptr) {
    const auto fluid = counters_with_prefix(*counters, "fluid.");
    if (!fluid.empty()) {
      print_rule(out, "fluid background (all runs)");
      for (const auto& [name, v] : fluid) {
        std::fprintf(out, "  %-28s %10.0f\n", name.c_str(), v);
      }
    }
  }
}

// ----------------------------------------------------------- trace render

void render_trace(const JsonValue& doc, std::FILE* out) {
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return;

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

  for (const auto& ev : events->array) {
    const char* ph = str_or(ev, "ph");
    const char* name = str_or(ev, "name");
    if (std::strcmp(ph, "M") == 0) continue;  // metadata
    ++total;
    if (std::strcmp(ph, "X") == 0) {
      const double dur = ev.find("dur") ? ev.find("dur")->num_or(0) : 0;
      auto& s = spans[name];
      s.durs_us.push_back(dur);
      s.total_us += dur;
    } else if (std::strcmp(ph, "C") == 0) {
      const JsonValue* args = ev.find("args");
      const double v = args != nullptr && args->find("value") != nullptr
                           ? args->find("value")->num_or(0)
                           : 0;
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

namespace {

/// Render a wehey.sweep_checkpoint.v1 JSONL journal: completed-run count
/// plus per-cell verdict tallies pulled from the embedded reports. False
/// when `path` does not load as a non-empty journal.
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
    if (json_parse(entry.report_json, doc)) {
      const JsonValue* verdict = doc.find("verdict");
      if (verdict != nullptr) ++cell.verdicts[verdict->str];
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

}  // namespace

void render_runtime(const JsonValue& doc, std::FILE* out) {
  const auto num = [](const JsonValue* obj, const char* key) -> double {
    if (obj == nullptr) return 0.0;
    const JsonValue* v = obj->find(key);
    return v != nullptr ? v->num_or(0.0) : 0.0;
  };
  std::fprintf(out, "runtime report  %s\n", str_or(doc, "schema"));
  std::fprintf(out, "  run          %s\n", str_or(doc, "run"));
  std::fprintf(out, "  wall         %.3f s\n", num(&doc, "wall_seconds"));
  const JsonValue* threads = doc.find("threads");
  if (threads != nullptr) {
    const JsonValue* over = threads->find("oversubscribed");
    std::fprintf(out,
                 "  threads      configured=%.0f hardware=%.0f "
                 "contexts=%.0f%s\n",
                 num(threads, "configured"), num(threads, "hardware"),
                 num(threads, "contexts"),
                 over != nullptr && over->boolean ? " OVERSUBSCRIBED" : "");
  }

  const JsonValue* workers = doc.find("workers");
  if (workers != nullptr && workers->type == JsonValue::Type::Array &&
      !workers->array.empty()) {
    print_rule(out, "workers (wall-clock; busy = running chunks)");
    std::fprintf(out, "  %3s  %-6s  %10s  %10s  %10s  %8s  %8s\n", "id",
                 "kind", "busy_ms", "idle_ms", "wait_ms", "chunks", "tasks");
    for (const JsonValue& w : workers->array) {
      std::fprintf(out, "  %3.0f  %-6s  %10.1f  %10.1f  %10.1f  %8.0f  %8.0f\n",
                   num(&w, "id"), str_or(w, "kind"), num(&w, "busy_ms"),
                   num(&w, "idle_ms"), num(&w, "wait_ms"), num(&w, "chunks"),
                   num(&w, "tasks"));
    }
  }

  const JsonValue* sched = doc.find("scheduler");
  if (sched != nullptr) {
    print_rule(out, "scheduler");
    std::fprintf(out, "  jobs                 %.0f\n", num(sched, "jobs"));
    std::fprintf(out, "  tasks                %.0f\n", num(sched, "tasks"));
    std::fprintf(out, "  queue high-water     %.0f\n",
                 num(sched, "queue_depth_high_water"));
    std::fprintf(out, "  drain waits          %.0f\n",
                 num(sched, "drain_waits"));
    std::fprintf(out, "  parallel efficiency  %.3f\n",
                 num(sched, "parallel_efficiency"));
    std::fprintf(out, "  worker imbalance     %.3f\n",
                 num(sched, "worker_imbalance"));
    std::fprintf(out, "  wait fraction        %.3f\n",
                 num(sched, "wait_fraction"));
    std::fprintf(out, "  idle fraction        %.3f\n",
                 num(sched, "idle_fraction"));
    const JsonValue* lat = sched->find("submit_to_start_us");
    if (lat != nullptr && num(lat, "count") > 0) {
      std::fprintf(out,
                   "  submit-to-start      p50=%.1fus p90=%.1fus p99=%.1fus "
                   "(n=%.0f)\n",
                   json_quantile(*lat, 0.50), json_quantile(*lat, 0.90),
                   json_quantile(*lat, 0.99), num(lat, "count"));
    }
  }

  const JsonValue* trials = doc.find("trials");
  if (trials != nullptr) {
    print_rule(out, "trials");
    std::fprintf(out, "  count        %.0f (supervised %.0f)\n",
                 num(trials, "count"), num(trials, "supervised"));
    const JsonValue* wall = trials->find("wall_ms");
    if (wall != nullptr && num(wall, "count") > 0) {
      std::fprintf(out,
                   "  wall         p50=%.1fms p90=%.1fms p99=%.1fms "
                   "max=%.1fms\n",
                   json_quantile(*wall, 0.50), json_quantile(*wall, 0.90),
                   json_quantile(*wall, 0.99), num(wall, "max"));
    }
  }

  const JsonValue* process = doc.find("process");
  if (process != nullptr) {
    print_rule(out, "process");
    std::fprintf(out, "  rss peak     %.0f KiB\n",
                 num(process, "rss_peak_kb"));
    std::fprintf(out, "  event heap   %.0f chunks, %.0f bytes\n",
                 num(process, "event_heap_chunks"),
                 num(process, "event_heap_bytes"));
  }
}

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
    render_report(doc, out);
    return true;
  }
  if (is_sweep_report(doc)) {
    render_sweep(doc, out);
    return true;
  }
  if (is_chrome_trace(doc)) {
    render_trace(doc, out);
    return true;
  }
  if (is_runtime_report(doc)) {
    render_runtime(doc, out);
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
