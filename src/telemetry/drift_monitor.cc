#include "telemetry/drift_monitor.h"

#include <cmath>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace cloudprov {
namespace {

/// Closed windows retained for export (oldest dropped beyond this).
constexpr std::size_t kMaxWindows = std::size_t{1} << 20;

}  // namespace

DriftMonitor::DriftMonitor(const MetricsRegistry& metrics, TraceBuffer& trace,
                           Config config)
    : arrived_(metrics.find_counter("requests_arrived")),
      completed_(metrics.find_counter("requests_completed")),
      rejected_(metrics.find_counter("requests_rejected")),
      response_(metrics.find_histogram("response_time_seconds")),
      trace_(&trace),
      config_(config) {
  ensure_arg(config_.qos_max_response_time > 0.0,
             "DriftMonitor: Ts must be > 0");
}

DriftMonitor::Observed DriftMonitor::observe() const {
  Observed observed;
  if (arrived_ != nullptr) observed.arrived = arrived_->value();
  if (completed_ != nullptr) observed.completed = completed_->value();
  if (rejected_ != nullptr) observed.rejected = rejected_->value();
  if (response_ != nullptr) {
    observed.responses = response_->count();
    observed.response_sum = response_->sum();
  }
  return observed;
}

void DriftMonitor::on_decision(SimTime t, const Prediction& pred,
                               double vm_hours, double busy_vm_hours) {
  if (window_open_) close_window(t, vm_hours, busy_vm_hours);
  window_open_ = true;
  window_start_ = t;
  pending_ = pred;
  window_base_ = observe();
  base_vm_hours_ = vm_hours;
  base_busy_vm_hours_ = busy_vm_hours;
}

void DriftMonitor::finalize(SimTime t, double vm_hours, double busy_vm_hours) {
  if (!window_open_) return;
  close_window(t, vm_hours, busy_vm_hours);
  window_open_ = false;
}

void DriftMonitor::close_window(SimTime t, double vm_hours,
                                double busy_vm_hours) {
  // Zero-length windows (two decisions at the same instant) observe nothing.
  if (t <= window_start_) return;

  const Observed now = observe();
  WindowRecord record;
  record.start = window_start_;
  record.end = t;
  record.predicted = pending_;
  record.arrivals = now.arrived - window_base_.arrived;
  record.completed = now.completed - window_base_.completed;
  record.rejected = now.rejected - window_base_.rejected;
  if (const std::uint64_t responses = now.responses - window_base_.responses;
      responses > 0) {
    record.observed_response_time =
        (now.response_sum - window_base_.response_sum) /
        static_cast<double>(responses);
  }
  if (record.arrivals > 0) {
    record.observed_rejection = static_cast<double>(record.rejected) /
                                static_cast<double>(record.arrivals);
  }
  record.vm_hours = vm_hours - base_vm_hours_;
  record.busy_vm_hours = busy_vm_hours - base_busy_vm_hours_;
  if (record.vm_hours > 0.0) {
    record.observed_utilization = record.busy_vm_hours / record.vm_hours;
  }
  record.response_error =
      pending_.response_time - record.observed_response_time;
  record.rejection_error = pending_.rejection - record.observed_rejection;
  record.utilization_error =
      pending_.utilization - record.observed_utilization;
  record.within_bound =
      record.completed > 0 &&
      record.observed_response_time <= config_.qos_max_response_time;

  ++closed_;
  if (windows_.size() == kMaxWindows) {
    windows_.erase(windows_.begin());
  }
  windows_.push_back(record);

  // One counter-lane sample per closed window: predicted-vs-observed pairs
  // render as overlaid stepped series in Perfetto.
  TraceEvent event;
  event.category = "drift";
  event.phase = TracePhase::kCounter;
  event.track = kTrackDrift;
  event.time = t;
  event.name = "drift_response_time";
  event.arg("predicted", pending_.response_time)
      .arg("observed", record.observed_response_time);
  trace_->record(event);
  event = TraceEvent{};
  event.category = "drift";
  event.phase = TracePhase::kCounter;
  event.track = kTrackDrift;
  event.time = t;
  event.name = "drift_rejection";
  event.arg("predicted", pending_.rejection)
      .arg("observed", record.observed_rejection);
  trace_->record(event);
  event = TraceEvent{};
  event.category = "drift";
  event.phase = TracePhase::kCounter;
  event.track = kTrackDrift;
  event.time = t;
  event.name = "drift_utilization";
  event.arg("predicted", pending_.utilization)
      .arg("observed", record.observed_utilization);
  trace_->record(event);
}

DriftMonitor::ErrorStats DriftMonitor::response_error() const {
  ErrorStats stats;
  std::uint64_t mape_windows = 0;
  std::uint64_t covered = 0;
  for (const WindowRecord& window : windows_) {
    if (window.completed == 0) continue;
    ++stats.windows;
    stats.bias += window.response_error;
    if (window.within_bound) ++covered;
    if (window.observed_response_time > 0.0) {
      ++mape_windows;
      stats.mape +=
          std::abs(window.response_error) / window.observed_response_time;
    }
  }
  if (stats.windows > 0) {
    stats.bias /= static_cast<double>(stats.windows);
    stats.coverage =
        static_cast<double>(covered) / static_cast<double>(stats.windows);
  }
  if (mape_windows > 0) {
    stats.mape = 100.0 * stats.mape / static_cast<double>(mape_windows);
  }
  return stats;
}

DriftMonitor::ErrorStats DriftMonitor::rejection_error() const {
  ErrorStats stats;
  std::uint64_t mape_windows = 0;
  for (const WindowRecord& window : windows_) {
    if (window.arrivals == 0) continue;
    ++stats.windows;
    stats.bias += window.rejection_error;
    if (window.observed_rejection > 0.0) {
      ++mape_windows;
      stats.mape += std::abs(window.rejection_error) / window.observed_rejection;
    }
  }
  if (stats.windows > 0) stats.bias /= static_cast<double>(stats.windows);
  if (mape_windows > 0) {
    stats.mape = 100.0 * stats.mape / static_cast<double>(mape_windows);
  }
  return stats;
}

DriftMonitor::ErrorStats DriftMonitor::utilization_error() const {
  ErrorStats stats;
  std::uint64_t mape_windows = 0;
  for (const WindowRecord& window : windows_) {
    if (window.vm_hours <= 0.0) continue;
    ++stats.windows;
    stats.bias += window.utilization_error;
    if (window.observed_utilization > 0.0) {
      ++mape_windows;
      stats.mape +=
          std::abs(window.utilization_error) / window.observed_utilization;
    }
  }
  if (stats.windows > 0) stats.bias /= static_cast<double>(stats.windows);
  if (mape_windows > 0) {
    stats.mape = 100.0 * stats.mape / static_cast<double>(mape_windows);
  }
  return stats;
}

void DriftMonitor::restore_from(const DriftMonitor& other) {
  window_open_ = other.window_open_;
  window_start_ = other.window_start_;
  pending_ = other.pending_;
  window_base_ = other.window_base_;
  base_vm_hours_ = other.base_vm_hours_;
  base_busy_vm_hours_ = other.base_busy_vm_hours_;
  windows_ = other.windows_;
  closed_ = other.closed_;
}

}  // namespace cloudprov
