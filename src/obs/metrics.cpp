#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace wehey::obs {

Histogram::Histogram(double lo, double hi, int buckets)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / (buckets > 0 ? buckets : 1)),
      bins_(static_cast<std::size_t>(buckets > 0 ? buckets : 1) + 2, 0) {}

void Histogram::observe(double v) {
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
  sum_ += v;
  std::size_t bin;
  if (v < lo_) {
    bin = 0;
  } else if (v >= hi_) {
    bin = bins_.size() - 1;
  } else {
    bin = 1 + static_cast<std::size_t>((v - lo_) / width_);
    if (bin >= bins_.size() - 1) bin = bins_.size() - 2;  // fp edge
  }
  ++bins_[bin];
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, int buckets) {
  auto [it, inserted] = histograms_.try_emplace(name, lo, hi, buckets);
  return it->second;
}

Histogram& MetricsRegistry::restore_histogram(
    const std::string& name, double lo, double hi, std::uint64_t count,
    double sum, double min, double max, std::vector<std::uint64_t> bins) {
  Histogram& h = histograms_[name] =
      Histogram(lo, hi, static_cast<int>(bins.size()) - 2);
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  h.bins_ = std::move(bins);
  return h;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].value_ += c.value_;
  }
  for (const auto& [name, g] : other.gauges_) {
    if (!g.seen_) continue;
    Gauge& mine = gauges_[name];
    if (!mine.seen_ || g.min_ < mine.min_) mine.min_ = g.min_;
    if (!mine.seen_ || g.max_ > mine.max_) mine.max_ = g.max_;
    mine.last_ = g.last_;
    mine.seen_ = true;
  }
  for (const auto& [name, h] : other.histograms_) {
    auto [it, inserted] = histograms_.try_emplace(name, h);
    if (inserted) continue;
    Histogram& mine = it->second;
    if (h.count_ == 0) continue;
    if (mine.count_ == 0 || h.min_ < mine.min_) mine.min_ = h.min_;
    if (mine.count_ == 0 || h.max_ > mine.max_) mine.max_ = h.max_;
    mine.count_ += h.count_;
    mine.sum_ += h.sum_;
    const std::size_t n = std::min(mine.bins_.size(), h.bins_.size());
    for (std::size_t i = 0; i < n; ++i) mine.bins_[i] += h.bins_[i];
  }
}

double histogram_quantile(double lo, double hi, std::uint64_t count,
                          double min, double max,
                          const std::vector<std::uint64_t>& bins, double q) {
  if (count == 0 || bins.size() < 3) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  const double width = (hi - lo) / static_cast<double>(bins.size() - 2);
  double cum = 0.0;
  double value = max;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i] == 0) continue;
    const double next = cum + static_cast<double>(bins[i]);
    if (next >= target) {
      if (i == 0) {
        value = min;  // underflow bucket: all we know is the min
      } else if (i == bins.size() - 1) {
        value = max;  // overflow bucket: all we know is the max
      } else {
        const double frac = (target - cum) / static_cast<double>(bins[i]);
        value = lo + (static_cast<double>(i - 1) + frac) * width;
      }
      break;
    }
    cum = next;
  }
  if (value < min) value = min;
  if (value > max) value = max;
  return value;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

namespace {

std::string pad(int indent) { return std::string(indent, ' '); }

}  // namespace

std::string MetricsRegistry::to_json(int indent) const {
  const std::string p0 = pad(indent);
  const std::string p1 = pad(indent + 2);
  const std::string p2 = pad(indent + 4);
  std::ostringstream out;
  out << "{\n";
  out << p1 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n")
        << p2 << "\"" << name << "\": " << c.value();
    first = false;
  }
  out << (first ? "" : "\n" + p1) << "},\n";
  out << p1 << "\"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << p2 << "\"" << name
        << "\": {\"last\": " << json_number(g.last())
        << ", \"min\": " << json_number(g.min())
        << ", \"max\": " << json_number(g.max()) << "}";
    first = false;
  }
  out << (first ? "" : "\n" + p1) << "},\n";
  out << p1 << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << p2 << "\"" << name
        << "\": {\"lo\": " << json_number(h.lo())
        << ", \"hi\": " << json_number(h.hi())
        << ", \"count\": " << h.count()
        << ", \"sum\": " << json_number(h.sum())
        << ", \"min\": " << json_number(h.count() ? h.min() : 0.0)
        << ", \"max\": " << json_number(h.count() ? h.max() : 0.0)
        << ", \"bins\": [";
    for (std::size_t i = 0; i < h.bins().size(); ++i) {
      if (i > 0) out << ", ";
      out << h.bins()[i];
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n" + p1) << "}\n";
  out << p0 << "}";
  return out.str();
}

}  // namespace wehey::obs
