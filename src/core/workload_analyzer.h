// Workload analyzer (Section IV-A).
//
// Periodically measures the realized arrival rate at the application
// provisioner, feeds it to an ArrivalRatePredictor, and raises a rate alert
// carrying the expected arrival rate for the near future. The alert "must be
// issued before the expected time for the rate to change", so the analyzer
// predicts `lead_time` ahead of the current clock — by the time the rate
// materializes, the provisioner has already resized the pool.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/application_provisioner.h"
#include "predict/predictor.h"
#include "sim/simulation.h"

namespace cloudprov {

struct AnalyzerConfig {
  /// Observation/alert cadence.
  SimTime analysis_interval = 60.0;
  /// How far ahead the alert looks; also the provisioning lead time.
  SimTime lead_time = 60.0;
  /// Minimum relative change in the predicted rate required to re-alert;
  /// 0 alerts on every tick (the modeler is cheap, so this is the default).
  double change_epsilon = 0.0;
};

class WorkloadAnalyzer {
 public:
  /// Fired with (current time, expected arrival rate at time + lead).
  using RateAlert = std::function<void(SimTime, double)>;

  /// Where the analyzer observes arrivals: returns (and resets) the count
  /// since the previous call. The classic form taps the provisioner's
  /// admission window; multi-tier worlds tap the cache front door instead,
  /// so the analyzer sees total lambda before hit-ratio offload.
  using ArrivalsTap = std::function<std::uint64_t()>;

  WorkloadAnalyzer(Simulation& sim, ArrivalsTap tap,
                   std::shared_ptr<ArrivalRatePredictor> predictor,
                   AnalyzerConfig config);

  WorkloadAnalyzer(Simulation& sim, ApplicationProvisioner& provisioner,
                   std::shared_ptr<ArrivalRatePredictor> predictor,
                   AnalyzerConfig config);

  /// Issues an immediate alert (initial pool sizing) and starts the
  /// periodic analysis process.
  void start(RateAlert alert);
  void stop();

  double last_prediction() const { return last_prediction_; }

  // --- checkpoint support (src/lookahead) ---------------------------------
  /// Analyzer position: the last alerted prediction and the pending periodic
  /// tick. Predictor fit state is checkpointed separately (the predictor may
  /// be shared between analyzers).
  struct State {
    double last_prediction = -1.0;
    bool running = false;
    EventStamp tick;  ///< pending tick stamp; meaningful when running
  };
  State checkpoint() const;
  /// Re-installs the alert callback and re-arms the periodic tick under its
  /// original stamp — without the initial-sizing alert that start() fires.
  /// Must run on a freshly constructed analyzer.
  void restore(RateAlert alert, const State& state);

 private:
  void tick(SimTime t);
  void raise_alert(SimTime t);

  Simulation& sim_;
  ArrivalsTap tap_;
  std::shared_ptr<ArrivalRatePredictor> predictor_;
  AnalyzerConfig config_;
  RateAlert alert_;
  std::optional<PeriodicProcess> process_;
  double last_prediction_ = -1.0;
};

}  // namespace cloudprov
