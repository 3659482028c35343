#include "telemetry/metrics_registry.h"

#include <algorithm>

#include "util/check.h"

namespace cloudprov {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  ensure_arg(!upper_bounds_.empty(), "Histogram: need at least one bound");
  ensure_arg(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()) &&
                 std::adjacent_find(upper_bounds_.begin(), upper_bounds_.end()) ==
                     upper_bounds_.end(),
             "Histogram: bounds must be strictly increasing");
  counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - upper_bounds_.begin())];
  ++count_;
  sum_ += value;
}

std::vector<double> decade_bounds(double lo, double hi) {
  ensure_arg(lo > 0.0 && hi > lo, "decade_bounds: need 0 < lo < hi");
  std::vector<double> bounds;
  for (double decade = lo; decade <= hi * (1.0 + 1e-12); decade *= 10.0) {
    for (const double step : {1.0, 2.0, 5.0}) {
      const double bound = decade * step;
      if (bound > hi * (1.0 + 1e-12)) break;
      bounds.push_back(bound);
    }
  }
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    ensure_arg(it->second.kind == Kind::kCounter,
               "MetricsRegistry: '" + name + "' is not a counter");
    return counters_[it->second.index].second;
  }
  by_name_.emplace(name, Slot{Kind::kCounter, counters_.size()});
  counters_.emplace_back(name, Counter{});
  return counters_.back().second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    ensure_arg(it->second.kind == Kind::kGauge,
               "MetricsRegistry: '" + name + "' is not a gauge");
    return gauges_[it->second.index].second;
  }
  by_name_.emplace(name, Slot{Kind::kGauge, gauges_.size()});
  gauges_.emplace_back(name, Gauge{});
  return gauges_.back().second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    ensure_arg(it->second.kind == Kind::kHistogram,
               "MetricsRegistry: '" + name + "' is not a histogram");
    return histograms_[it->second.index].second;
  }
  by_name_.emplace(name, Slot{Kind::kHistogram, histograms_.size()});
  histograms_.emplace_back(name, Histogram(std::move(upper_bounds)));
  return histograms_.back().second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kCounter) return nullptr;
  return &counters_[it->second.index].second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kHistogram) {
    return nullptr;
  }
  return &histograms_[it->second.index].second;
}

void Histogram::restore(const std::vector<std::uint64_t>& counts,
                        std::uint64_t count, double sum) {
  ensure_arg(counts.size() == counts_.size(),
             "Histogram::restore: bucket layout mismatch");
  counts_ = counts;
  count_ = count;
  sum_ = sum;
}

void MetricsRegistry::copy_values_from(const MetricsRegistry& other) {
  for (const auto& [name, src] : other.counters_) {
    counter(name).restore(src.value());
  }
  for (const auto& [name, src] : other.gauges_) {
    gauge(name).set(src.value());
  }
  for (const auto& [name, src] : other.histograms_) {
    histogram(name, src.upper_bounds())
        .restore(src.bucket_counts(), src.count(), src.sum());
  }
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(CounterView{name, counter.value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back(GaugeView{name, gauge.value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(HistogramView{name, histogram.upper_bounds(),
                                            histogram.bucket_counts(),
                                            histogram.count(),
                                            histogram.sum()});
  }
  return snap;
}

MetricsRegistry::Snapshot MetricsRegistry::Snapshot::diff(
    const Snapshot& earlier) const {
  Snapshot delta = *this;
  for (auto& counter : delta.counters) {
    for (const auto& base : earlier.counters) {
      if (base.name == counter.name) {
        counter.value -= base.value;
        break;
      }
    }
  }
  for (auto& histogram : delta.histograms) {
    for (const auto& base : earlier.histograms) {
      if (base.name != histogram.name ||
          base.upper_bounds != histogram.upper_bounds) {
        continue;
      }
      for (std::size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
        histogram.bucket_counts[i] -= base.bucket_counts[i];
      }
      histogram.count -= base.count;
      histogram.sum -= base.sum;
      break;
    }
  }
  return delta;
}

MetricsRegistry::Snapshot snapshot_delta(
    const MetricsRegistry::Snapshot& later,
    const MetricsRegistry::Snapshot& earlier) {
  return later.diff(earlier);
}

}  // namespace cloudprov
