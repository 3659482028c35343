// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// One registry per replication (the parallel runner gives every worker its
// own Telemetry instance), so instruments are plain non-atomic values and
// recording is a single add/store. Instrument references returned by the
// registry are stable for the registry's lifetime — hot paths look a metric
// up once and keep the pointer. Snapshots capture all instruments in
// registration order; two snapshots can be differenced for windowed rates.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace cloudprov {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  /// Checkpoint restore only — counters are otherwise monotonic.
  void restore(std::uint64_t value) { value_ = value; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value (instance counts, queue depths).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with Prometheus-style cumulative-upper-bound
/// semantics: bucket i counts observations <= upper_bounds[i]; one implicit
/// overflow bucket counts the rest. Bounds are fixed at construction so
/// recording is a branchless-ish linear scan over a handful of doubles.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; size = upper_bounds().size() + 1 (last = overflow).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Checkpoint restore only; `counts` must match the bucket layout.
  void restore(const std::vector<std::uint64_t>& counts, std::uint64_t count,
               double sum);

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Log-spaced 1-2-5 bounds covering [lo, hi]; the default response-time
/// buckets span 1 ms .. 1000 s so both the web (Ts = 0.25 s) and scientific
/// (Ts = 700 s) scenarios land mid-range.
std::vector<double> decade_bounds(double lo, double hi);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates an instrument. References stay valid for the
  /// registry's lifetime. Re-requesting a histogram ignores `upper_bounds`.
  /// Requesting an existing name as a different instrument kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// The instrument registered under `name`, or null; never creates one.
  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  struct CounterView {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeView {
    std::string name;
    double value = 0.0;
  };
  struct HistogramView {
    std::string name;
    std::vector<double> upper_bounds;
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  /// All instruments in registration order, values frozen at call time.
  struct Snapshot {
    std::vector<CounterView> counters;
    std::vector<GaugeView> gauges;
    std::vector<HistogramView> histograms;

    /// Windowed view of two cumulative snapshots: counter and histogram
    /// values of *this minus `earlier` (gauges keep this snapshot's value);
    /// instruments absent from `earlier` are returned as-is.
    Snapshot diff(const Snapshot& earlier) const;
  };
  Snapshot snapshot() const;

  /// Checkpoint support (src/lookahead): overwrites this registry's
  /// instrument values with `other`'s, creating any instrument this registry
  /// has not registered yet (lazily-registered per-cause counters) in
  /// `other`'s per-kind registration order — so a freshly constructed
  /// registry becomes value- and order-identical to the source.
  void copy_values_from(const MetricsRegistry& other);

  std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    std::size_t index;
  };
  // deques give stable element addresses across growth.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
  std::unordered_map<std::string, Slot> by_name_;
};

/// Counter/histogram deltas of `later` relative to `earlier` (gauges keep
/// their `later` value): the per-window view of two cumulative snapshots.
/// Instruments present only in `later` are returned as-is.
MetricsRegistry::Snapshot snapshot_delta(
    const MetricsRegistry::Snapshot& later,
    const MetricsRegistry::Snapshot& earlier);

}  // namespace cloudprov
