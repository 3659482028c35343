// SLA classes, per-class accounting, and revenue/penalty bookkeeping — the
// paper's final future-work item (Section VII): "extend the model to support
// other QoS parameters such as deadline and incentive/budget to ensure that
// high-priority requests are served first in case of intense competition for
// resources ... we will also address the problem of SLA management for
// trade-offs of QoS between different requests, potentially with different
// priorities and incentives".
//
// An SlaManager assigns each incoming request to an SLA class (by priority),
// stamps the class's deadline, and accounts outcomes per class: completions
// earn the class's revenue, rejections and late completions pay its penalty.
// Combined with PriorityAwareAdmission (core/admission.h), the provider can
// sacrifice low-value traffic under contention and the manager prices the
// trade-off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/running_stats.h"
#include "workload/request.h"

namespace cloudprov {

struct SlaClass {
  std::string name;
  /// Requests with priority >= this (and < the next class's threshold)
  /// belong to this class. Classes must be registered in increasing
  /// threshold order.
  int priority_threshold = 0;
  /// Response-time bound for this class (seconds); also stamped as a
  /// relative deadline on admission when `stamp_deadline` is set.
  double max_response_time = 0.0;
  bool stamp_deadline = false;
  /// Earned per request completed within the bound.
  double revenue_per_request = 0.0;
  /// Paid per rejected/dropped request.
  double rejection_penalty = 0.0;
  /// Paid per completion that misses the bound.
  double violation_penalty = 0.0;
};

struct SlaClassReport {
  std::string name;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t violations = 0;  ///< completions over the class bound
  double mean_response_time = 0.0;
  double revenue = 0.0;  ///< net: earnings - penalties
};

class SlaManager {
 public:
  /// `classes` ordered by increasing priority_threshold.
  explicit SlaManager(std::vector<SlaClass> classes);

  /// Index of the class a request with this priority belongs to.
  std::size_t classify(int priority) const;

  /// Tags a request on arrival: stamps the deadline when configured and
  /// counts it as offered. Returns the class index.
  std::size_t on_arrival(Request& request);

  /// Records the admission decision and, later, the completion.
  void on_rejected(const Request& request);
  void on_completed(const Request& request, double response_time);

  SlaClassReport report(std::size_t class_index) const;
  std::vector<SlaClassReport> report_all() const;

  /// Net revenue over all classes.
  double total_revenue() const;

 private:
  struct ClassState {
    std::uint64_t offered = 0;
    std::uint64_t rejected = 0;
    std::uint64_t violations = 0;
    RunningStats response;
  };

  std::vector<SlaClass> classes_;
  std::vector<ClassState> state_;
};

}  // namespace cloudprov
