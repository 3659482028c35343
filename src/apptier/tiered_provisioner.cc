#include "apptier/tiered_provisioner.h"

#include <algorithm>

#include "profile/wall_profiler.h"
#include "queueing/tandem.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

TieredProvisioner::TieredProvisioner(
    Simulation& sim, std::shared_ptr<ArrivalRatePredictor> predictor,
    ModelerConfig backend_modeler_config, AnalyzerConfig analyzer_config,
    ApptierConfig config)
    : sim_(sim),
      predictor_(std::move(predictor)),
      backend_modeler_config_(backend_modeler_config),
      analyzer_config_(analyzer_config),
      config_(std::move(config)) {
  ensure_arg(predictor_ != nullptr, "TieredProvisioner: null predictor");
  ensure_arg(config_.enabled, "TieredProvisioner: apptier must be enabled");
}

void TieredProvisioner::bind(ApplicationProvisioner& backend,
                             ApplicationProvisioner& cache, CacheTier& tier) {
  ensure(backend_ == nullptr, "TieredProvisioner: attached twice");
  backend_ = &backend;
  cache_ = &cache;
  tier_ = &tier;
  backend_modeler_.emplace(backend.qos(), backend_modeler_config_);
  // The cache tier plans with Algorithm 1's default configuration.
  cache_modeler_.emplace(cache.qos(), ModelerConfig{});
  analyzer_.emplace(
      sim_, [&tier] { return tier.take_window_arrivals(); }, predictor_,
      analyzer_config_);
}

void TieredProvisioner::attach(ApplicationProvisioner& backend,
                               ApplicationProvisioner& cache,
                               CacheTier& tier) {
  bind(backend, cache, tier);
  // Pre-provision the cache pool so the directory has somewhere to live
  // before the first planning window.
  cache.scale_to(std::max<std::size_t>(config_.cache_vms, 1));
  analyzer_->start(
      [this](SimTime t, double rate) { on_rate_alert(t, rate); });
}

AdaptivePolicy::State TieredProvisioner::checkpoint(
    bool include_decisions) const {
  ensure(analyzer_.has_value(), "TieredProvisioner::checkpoint: not attached");
  AdaptivePolicy::State state;
  state.analyzer = analyzer_->checkpoint();
  predictor_->save_state(state.predictor);
  if (include_decisions) state.decisions = decisions_;
  return state;
}

void TieredProvisioner::restore_attach(ApplicationProvisioner& backend,
                                       ApplicationProvisioner& cache,
                                       CacheTier& tier,
                                       const AdaptivePolicy::State& state) {
  bind(backend, cache, tier);
  predictor_->load_state(state.predictor);
  decisions_ = state.decisions;
  analyzer_->restore(
      [this](SimTime t, double rate) { on_rate_alert(t, rate); },
      state.analyzer);
}

void TieredProvisioner::on_rate_alert(SimTime t, double expected_rate) {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kPolicyDecision);
  const double ewma = tier_->fold_window();
  // The cache plans with the assumed warmup ratio until real windows exist;
  // the backend stays conservative (h = 0) so a cold cache cannot starve it.
  const double h_cache = ewma >= 0.0 ? ewma : CacheTier::kAssumedHitRatio;
  const double h_backend = ewma >= 0.0 ? ewma : 0.0;

  // --- cache tier: Algorithm 1 at the hit flow ---------------------------
  const double lambda_cache = expected_rate * h_cache;
  const double tm_cache = cache_->monitored_service_time();
  const std::size_t k_cache = cache_->current_queue_bound();
  const ModelerDecision cache_decision = cache_modeler_->required_instances(
      std::max<std::size_t>(cache_->active_instances(), 1), lambda_cache,
      tm_cache, k_cache);
  const std::size_t cache_achieved = cache_->scale_to(cache_decision.instances);
  cache_decisions_.push_back(AdaptivePolicy::DecisionRecord{
      t, lambda_cache, tm_cache, k_cache, cache_decision.instances,
      cache_achieved, cache_decision.predicted_response_time,
      cache_decision.predicted_rejection, cache_decision.predicted_utilization});

  // --- backend tier: Algorithm 1 at the miss flow ------------------------
  const double lambda_miss = expected_rate * (1.0 - h_backend);
  const double tm_backend = backend_->monitored_service_time();
  const std::size_t k_backend = backend_->current_queue_bound();
  const ModelerDecision backend_decision =
      backend_modeler_->required_instances(
          std::max<std::size_t>(backend_->active_instances(), 1), lambda_miss,
          tm_backend, k_backend);
  const std::size_t backend_achieved =
      backend_->scale_to(backend_decision.instances);
  decisions_.push_back(AdaptivePolicy::DecisionRecord{
      t, lambda_miss, tm_backend, k_backend, backend_decision.instances,
      backend_achieved, backend_decision.predicted_response_time,
      backend_decision.predicted_rejection,
      backend_decision.predicted_utilization});

  // --- tandem model: predicted end-to-end response -----------------------
  // Miss-path requests traverse cache lookup then backend service; solve the
  // decomposed tandem for that path and mix with the hit-path prediction.
  double predicted_e2e = cache_decision.predicted_response_time;
  if (lambda_miss > 0.0) {
    const std::vector<queueing::TandemTier> tandem{
        queueing::TandemTier{std::max<std::size_t>(cache_achieved, 1),
                             1.0 / std::max(tm_cache, 1e-9), k_cache},
        queueing::TandemTier{std::max<std::size_t>(backend_achieved, 1),
                             1.0 / std::max(tm_backend, 1e-9), k_backend}};
    const queueing::TandemMetrics miss_path =
        queueing::solve_tandem(lambda_miss, tandem);
    predicted_e2e = h_backend * cache_decision.predicted_response_time +
                    (1.0 - h_backend) * miss_path.end_to_end_response;
  }
  tier_->record_window_sample(t, lambda_miss, predicted_e2e);

  if (telemetry_ != nullptr) {
    telemetry_->scaling_decision(t, lambda_miss, tm_backend, k_backend,
                                 backend_decision.instances, backend_achieved);
    telemetry_->tier_decision(t, expected_rate, h_backend, lambda_miss,
                              cache_decision.instances,
                              backend_decision.instances);
    telemetry_->cache_instance_count(t, cache_->active_instances(),
                                     cache_->draining_instances());
    feed_drift_monitor(*telemetry_, decisions_.back(), backend_->datacenter());
  }
  CLOUDPROV_LOG(Debug) << "tiered: t=" << t << " lambda=" << expected_rate
                       << " h=" << h_backend << " miss=" << lambda_miss
                       << " -> cache m=" << cache_decision.instances
                       << " backend m=" << backend_decision.instances;
}

}  // namespace cloudprov
