// Deterministic run metrics: counters, gauges and fixed-bucket histograms.
//
// A MetricsRegistry is owned by exactly one execution context at a time —
// typically one trial of the parallel engine — so the hot path is a plain
// (non-atomic, lock-free) integer increment through a cached handle.
// Cross-thread aggregation happens by *merging* whole registries in a
// deterministic order (parallel_map absorbs per-trial registries in index
// order), so the merged snapshot is bit-identical regardless of
// WEHEY_THREADS.
//
// Handles returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime (node-based storage), so instrumented components
// look a name up once and increment a pointer afterwards.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wehey::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  std::uint64_t value_ = 0;
};

/// Last-written value with min/max watermarks (e.g. peak event-heap depth).
class Gauge {
 public:
  void set(double v) {
    last_ = v;
    if (!seen_ || v < min_) min_ = v;
    if (!seen_ || v > max_) max_ = v;
    seen_ = true;
  }
  bool seen() const { return seen_; }
  double last() const { return last_; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  friend class MetricsRegistry;
  bool seen_ = false;
  double last_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket linear histogram over [lo, hi): `buckets` equal-width bins
/// plus underflow/overflow. The layout is fixed at registration, so two
/// histograms registered with the same spec merge by summing bins.
class Histogram {
 public:
  Histogram() = default;
  Histogram(double lo, double hi, int buckets);

  void observe(double v);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int buckets() const { return static_cast<int>(bins_.size()) - 2; }
  /// bins()[0] is underflow, bins().back() overflow.
  const std::vector<std::uint64_t>& bins() const { return bins_; }

 private:
  friend class MetricsRegistry;
  double lo_ = 0.0;
  double hi_ = 1.0;
  double width_ = 1.0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> bins_;  ///< underflow + buckets + overflow
};

class MetricsRegistry {
 public:
  /// Find-or-create. References remain valid until the registry dies.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// The spec is fixed by the first registration of `name`; later calls
  /// with a different spec keep the original layout.
  Histogram& histogram(const std::string& name, double lo, double hi,
                       int buckets);
  /// Rebuild `name` exactly as to_json wrote it (RunReport::from_json).
  /// `bins` holds underflow, the buckets and overflow: at least 3 entries.
  Histogram& restore_histogram(const std::string& name, double lo, double hi,
                               std::uint64_t count, double sum, double min,
                               double max, std::vector<std::uint64_t> bins);

  /// Convenience for call sites that fire once (no handle worth caching).
  void add(const std::string& name, std::uint64_t n = 1) {
    counter(name).inc(n);
  }
  void set(const std::string& name, double v) { gauge(name).set(v); }

  /// Fold `other` into this registry: counters and histogram bins sum,
  /// gauges combine watermarks (and adopt `other`'s last written value).
  /// Deterministic given a deterministic merge order.
  void merge(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Snapshot as a JSON object with sorted, stable key order:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json(int indent = 0) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Quantile estimate (q in [0, 1]) from fixed buckets over [lo, hi):
/// `bins` holds underflow + equal-width buckets + overflow, as in
/// Histogram. Linearly interpolated within the bucket that crosses the
/// target rank; underflow mass resolves to `min`, overflow mass to `max`,
/// and the result is clamped to [min, max]. Returns 0 when `count` is 0
/// or there is no bucket. A pure function of its inputs, so the run
/// report, the sweep aggregate (merged bins) and `wehey_cli inspect`
/// (bins read back from JSON) all derive the same p50/p90/p99.
double histogram_quantile(double lo, double hi, std::uint64_t count,
                          double min, double max,
                          const std::vector<std::uint64_t>& bins, double q);

inline double histogram_quantile(const Histogram& h, double q) {
  return histogram_quantile(h.lo(), h.hi(), h.count(), h.min(), h.max(),
                            h.bins(), q);
}

/// Render a double the way every obs JSON writer does: shortest
/// round-trippable decimal form, integral values without a trailing ".0"
/// mess ("17" not "17.000000"). Stable across platforms for the value
/// ranges we emit.
std::string json_number(double v);

}  // namespace wehey::obs
