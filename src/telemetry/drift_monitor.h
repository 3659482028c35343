// Model-drift observatory: predicted vs observed, per analysis window.
//
// Every Algorithm 1 run predicts the pool's mean response time, rejection
// probability, and utilization for the upcoming analysis window. This
// monitor pairs each prediction with what the simulation actually did over
// that window — observed values are recovered as deltas of the cumulative
// metrics registry's request counters and response histogram plus the data
// center's cumulative VM-hour accounting — and maintains windowed error
// statistics: signed bias (predicted - observed), MAPE, and coverage of the
// k = floor(Ts/Tr) bound (the fraction of windows whose observed mean
// response time stayed within Ts, which is exactly what the queue bound is
// supposed to guarantee).
//
// The monitor is fed by AdaptivePolicy at every modeler decision; each
// decision closes the previous window and opens the next. It is purely
// observational: it never schedules events and never changes decisions.
// It reads the four instruments it differences (arrived, completed and
// rejected counters, the response-time histogram's count and sum) through
// pointers resolved once at construction, so a window costs a few loads
// rather than a copy of the registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/metrics_registry.h"
#include "telemetry/trace_buffer.h"
#include "util/units.h"

namespace cloudprov {

class DriftMonitor {
 public:
  struct Config {
    /// Ts: the negotiated response-time target the k bound must guarantee;
    /// used for the coverage statistic.
    double qos_max_response_time = 0.250;
  };

  /// What the modeler promised for the upcoming window.
  struct Prediction {
    double response_time = 0.0;  ///< Tq of accepted requests (model)
    double rejection = 0.0;      ///< Pr(S_k) under the even-split model
    double utilization = 0.0;    ///< offered per-instance load rho
    double lambda = 0.0;         ///< expected arrival rate fed to Algorithm 1
    double tm = 0.0;             ///< monitored service time at decision time
    std::size_t queue_bound = 0; ///< k = floor(Ts/Tr) at decision time
    std::size_t instances = 0;   ///< chosen m
  };

  /// One closed window: the prediction, the observation, and the errors.
  struct WindowRecord {
    SimTime start = 0.0;
    SimTime end = 0.0;
    Prediction predicted;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    double observed_response_time = 0.0;  ///< mean over the window's completions
    double observed_rejection = 0.0;      ///< rejected / arrivals
    double observed_utilization = 0.0;    ///< busy VM-hours / VM-hours
    double vm_hours = 0.0;       ///< VM-hours accrued in the window
    double busy_vm_hours = 0.0;  ///< busy VM-hours accrued in the window
    // Signed errors, predicted - observed (positive = model pessimistic on
    // response/rejection, optimistic on utilization headroom).
    double response_error = 0.0;
    double rejection_error = 0.0;
    double utilization_error = 0.0;
    /// Observed mean response time within Ts (only meaningful when
    /// completed > 0): the k-bound guarantee held for this window.
    bool within_bound = false;
  };

  /// Aggregate error statistics over the closed windows that observed at
  /// least one relevant event (completions for response, arrivals for
  /// rejection/utilization).
  struct ErrorStats {
    std::uint64_t windows = 0;  ///< windows contributing to bias
    double bias = 0.0;          ///< mean signed error (predicted - observed)
    double mape = 0.0;  ///< mean |error| / observed, percent, over windows
                        ///< with a non-zero observation
    double coverage = 0.0;  ///< response only: fraction of windows within Ts
  };

  /// `metrics` must outlive the monitor and be the registry the request
  /// hooks write into, with their instruments already registered (an
  /// instrument it lacks reads as zero); `trace` receives one drift
  /// counter-lane sample per closed window.
  DriftMonitor(const MetricsRegistry& metrics, TraceBuffer& trace,
               Config config);

  const Config& config() const { return config_; }

  /// Called at every modeler decision: closes the window opened by the
  /// previous call (if any) against the current cumulative observations,
  /// then opens a new window under `pred`. `vm_hours`/`busy_vm_hours` are
  /// the data center's cumulative accounting at time `t`.
  void on_decision(SimTime t, const Prediction& pred, double vm_hours,
                   double busy_vm_hours);

  /// Closes the open window at end of run (no new window is opened).
  /// Safe to call when no window is open.
  void finalize(SimTime t, double vm_hours, double busy_vm_hours);

  /// The newest closed windows, at most 2^20 (older ones are dropped).
  const std::vector<WindowRecord>& windows() const { return windows_; }
  /// Closed windows ever, including any dropped from windows().
  std::uint64_t closed_windows() const { return closed_; }

  ErrorStats response_error() const;
  ErrorStats rejection_error() const;
  ErrorStats utilization_error() const;

  /// Checkpoint support (src/lookahead): copies `other`'s window state and
  /// history into this monitor, keeping this monitor's own registry/trace
  /// bindings. Configurations must match.
  void restore_from(const DriftMonitor& other);

 private:
  /// Cumulative values of the instruments a window differences.
  struct Observed {
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t responses = 0;
    double response_sum = 0.0;
  };
  Observed observe() const;
  void close_window(SimTime t, double vm_hours, double busy_vm_hours);

  const Counter* arrived_;
  const Counter* completed_;
  const Counter* rejected_;
  const Histogram* response_;
  TraceBuffer* trace_;
  Config config_;

  bool window_open_ = false;
  SimTime window_start_ = 0.0;
  Prediction pending_;
  Observed window_base_;
  double base_vm_hours_ = 0.0;
  double base_busy_vm_hours_ = 0.0;

  std::vector<WindowRecord> windows_;
  std::uint64_t closed_ = 0;
};

}  // namespace cloudprov
