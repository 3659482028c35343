#include "core/adaptive_policy.h"

#include "profile/wall_profiler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

AdaptivePolicy::AdaptivePolicy(Simulation& sim,
                               std::shared_ptr<ArrivalRatePredictor> predictor,
                               ModelerConfig modeler_config,
                               AnalyzerConfig analyzer_config)
    : sim_(sim),
      predictor_(std::move(predictor)),
      modeler_config_(modeler_config),
      analyzer_config_(analyzer_config) {
  ensure_arg(predictor_ != nullptr, "AdaptivePolicy: null predictor");
}

void AdaptivePolicy::attach(ApplicationProvisioner& provisioner) {
  ensure(provisioner_ == nullptr, "AdaptivePolicy: attached twice");
  provisioner_ = &provisioner;
  modeler_.emplace(provisioner.qos(), modeler_config_);
  analyzer_.emplace(sim_, provisioner, predictor_, analyzer_config_);
  analyzer_->start(
      [this](SimTime t, double rate) { on_rate_alert(t, rate); });
}

AdaptivePolicy::State AdaptivePolicy::checkpoint(bool include_decisions) const {
  ensure(analyzer_.has_value(), "AdaptivePolicy::checkpoint: not attached");
  State state;
  state.analyzer = analyzer_->checkpoint();
  predictor_->save_state(state.predictor);
  if (include_decisions) state.decisions = decisions_;
  return state;
}

void AdaptivePolicy::restore_attach(ApplicationProvisioner& provisioner,
                                    const State& state) {
  ensure(provisioner_ == nullptr, "AdaptivePolicy: attached twice");
  provisioner_ = &provisioner;
  modeler_.emplace(provisioner.qos(), modeler_config_);
  predictor_->load_state(state.predictor);
  decisions_ = state.decisions;
  analyzer_.emplace(sim_, provisioner, predictor_, analyzer_config_);
  analyzer_->restore([this](SimTime t, double rate) { on_rate_alert(t, rate); },
                     state.analyzer);
}

void AdaptivePolicy::on_rate_alert(SimTime t, double expected_rate) {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kPolicyDecision);
  const double tm = provisioner_->monitored_service_time();
  const std::size_t k = provisioner_->current_queue_bound();
  const ModelerDecision decision = modeler_->required_instances(
      std::max<std::size_t>(provisioner_->active_instances(), 1), expected_rate,
      tm, k);
  const std::size_t achieved = provisioner_->scale_to(decision.instances);
  decisions_.push_back(DecisionRecord{
      t, expected_rate, tm, k, decision.instances, achieved,
      decision.predicted_response_time, decision.predicted_rejection,
      decision.predicted_utilization});
  if (telemetry_ != nullptr) {
    telemetry_->scaling_decision(t, expected_rate, tm, k, decision.instances,
                                 achieved);
    if (DriftMonitor* drift = telemetry_->drift(); drift != nullptr) {
      DriftMonitor::Prediction prediction;
      prediction.response_time = decision.predicted_response_time;
      prediction.rejection = decision.predicted_rejection;
      prediction.utilization = decision.predicted_utilization;
      prediction.lambda = expected_rate;
      prediction.tm = tm;
      prediction.queue_bound = k;
      prediction.instances = achieved;
      const Datacenter& datacenter = provisioner_->datacenter();
      drift->on_decision(t, prediction, datacenter.vm_hours(),
                         datacenter.busy_vm_hours());
    }
  }
  CLOUDPROV_LOG(Debug) << "adaptive: t=" << t << " lambda=" << expected_rate
                       << " -> m=" << decision.instances
                       << " (achieved " << achieved << ")";
}

}  // namespace cloudprov
