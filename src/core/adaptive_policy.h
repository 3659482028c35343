// Adaptive provisioning policy — the paper's contribution (Section IV),
// assembling the three components: workload analyzer -> load predictor and
// performance modeler -> application provisioner.
//
// On every analyzer alert the modeler runs Algorithm 1 against the expected
// arrival rate and the monitored service time; the resulting pool size is
// applied through ApplicationProvisioner::scale_to, which handles graceful
// drain/resurrect semantics.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/performance_modeler.h"
#include "core/provisioning_policy.h"
#include "core/workload_analyzer.h"
#include "predict/predictor.h"

namespace cloudprov {

class Telemetry;

class AdaptivePolicy final : public ProvisioningPolicy {
 public:
  AdaptivePolicy(Simulation& sim, std::shared_ptr<ArrivalRatePredictor> predictor,
                 ModelerConfig modeler_config, AnalyzerConfig analyzer_config);

  void attach(ApplicationProvisioner& provisioner) override;
  std::string name() const override { return "Adaptive"; }

  /// Attaches the replication's telemetry collector (null disables); every
  /// Algorithm 1 run is then recorded with its inputs (lambda, Tm, k) and
  /// the chosen instance count. Set before attach().
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// One provisioning decision (Algorithm 1 inputs + outcome), for
  /// diagnostics, the examples, and the decision-timeline CSV.
  struct DecisionRecord {
    SimTime time = 0.0;
    double expected_rate = 0.0;         ///< lambda fed to the modeler
    double monitored_service_time = 0.0;  ///< Tm at decision time
    std::size_t queue_bound = 0;        ///< k (Equation 1) at decision time
    std::size_t target_instances = 0;
    std::size_t achieved_instances = 0;
    // What the M/M/1/k model promised for the chosen pool size — paired
    // with the window's observations by the drift observatory.
    double predicted_response_time = 0.0;
    double predicted_rejection = 0.0;
    double predicted_utilization = 0.0;
  };
  const std::vector<DecisionRecord>& decisions() const { return decisions_; }

  const PerformanceModeler* modeler() const {
    return modeler_ ? &*modeler_ : nullptr;
  }

  // --- checkpoint support (src/lookahead) ---------------------------------
  /// Mutable policy state: the analyzer position, the predictor's fit state,
  /// and the decision log. The modeler is stateless.
  struct State {
    WorkloadAnalyzer::State analyzer;
    std::vector<double> predictor;
    std::vector<DecisionRecord> decisions;
  };
  /// `include_decisions` = false leaves the decision log out: what-if base
  /// snapshots never read it, and it grows by one record per window.
  State checkpoint(bool include_decisions) const;
  /// attach() variant for a restored world: binds the provisioner, restores
  /// the predictor fit and analyzer tick, and replays no initial sizing.
  void restore_attach(ApplicationProvisioner& provisioner, const State& state);

 private:
  void on_rate_alert(SimTime t, double expected_rate);

  Simulation& sim_;
  std::shared_ptr<ArrivalRatePredictor> predictor_;
  ModelerConfig modeler_config_;
  AnalyzerConfig analyzer_config_;

  ApplicationProvisioner* provisioner_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  std::optional<PerformanceModeler> modeler_;
  std::optional<WorkloadAnalyzer> analyzer_;
  std::vector<DecisionRecord> decisions_;
};

}  // namespace cloudprov
