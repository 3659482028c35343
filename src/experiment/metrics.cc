#include "experiment/metrics.h"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace cloudprov {
namespace {

template <typename T>
std::uint64_t metric_bits(const T& value) {
  static_assert(sizeof(T) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

template <typename T>
std::string metric_text(const T& value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
  return out.str();
}

template <typename Getter>
ConfidenceInterval field_ci(const std::vector<RunMetrics>& runs, double confidence,
                            Getter getter) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const RunMetrics& run : runs) values.push_back(getter(run));
  return mean_confidence_interval(values, confidence);
}

}  // namespace

std::vector<std::string> metric_differences(
    const RunMetrics& a, const RunMetrics& b,
    std::initializer_list<std::string_view> allowed_to_differ) {
  std::size_t excluded = 0;
  const auto allowed = [&](std::string_view name) {
    const bool skip = std::find(allowed_to_differ.begin(),
                                allowed_to_differ.end(),
                                name) != allowed_to_differ.end();
    excluded += skip ? 1 : 0;
    return skip;
  };
  std::vector<std::string> differences;
  if (!allowed("policy") && a.policy != b.policy) {
    differences.push_back("policy: " + a.policy + " vs " + b.policy);
  }
  // for_each_metric walks one object: record b's values, then walk a.
  struct Value {
    std::uint64_t bits;
    std::string text;
  };
  std::vector<Value> expected;
  for_each_metric(b, [&](const char*, const auto& value, MetricDirection,
                         MetricGroup) {
    expected.push_back({metric_bits(value), metric_text(value)});
  });
  std::size_t i = 0;
  for_each_metric(a, [&](const char* name, const auto& value,
                         MetricDirection, MetricGroup) {
    const Value& other = expected[i++];
    if (!allowed(name) && metric_bits(value) != other.bits) {
      differences.push_back(std::string(name) + ": " + metric_text(value) +
                            " vs " + other.text);
    }
  });
  ensure_arg(excluded == allowed_to_differ.size(),
             "metric_differences: allowed_to_differ names a field RunMetrics "
             "does not have");
  return differences;
}

AggregateMetrics aggregate(const std::vector<RunMetrics>& runs, double confidence) {
  ensure_arg(!runs.empty(), "aggregate: no runs");
  AggregateMetrics agg;
  agg.policy = runs.front().policy;
  agg.replications = runs.size();
  agg.avg_response_time =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.avg_response_time; });
  agg.std_response_time =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.std_response_time; });
  agg.min_instances =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.min_instances; });
  agg.max_instances =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.max_instances; });
  agg.vm_hours =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.vm_hours; });
  agg.utilization =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.utilization; });
  agg.rejection_rate =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.rejection_rate; });
  agg.qos_violations = field_ci(runs, confidence, [](const RunMetrics& r) {
    return static_cast<double>(r.qos_violations);
  });
  agg.availability =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.availability; });
  agg.billed_cost =
      field_ci(runs, confidence, [](const RunMetrics& r) { return r.billed_cost; });
  return agg;
}

}  // namespace cloudprov
