#include "core/adaptive_policy.h"

#include <algorithm>

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

void AdaptivePolicy::set_lookahead(WhatIfEngine* engine,
                                   LookaheadConfig config) {
  ensure_arg(engine != nullptr, "AdaptivePolicy: null what-if engine");
  const std::uint64_t seed = config.seed;
  lookahead_.emplace(Lookahead{engine, std::move(config), Rng(seed)});
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

std::optional<Rng::State> AdaptivePolicy::forecast_rng_state() const {
  if (!lookahead_.has_value()) return std::nullopt;
  return lookahead_->rng.state();
}

void AdaptivePolicy::restore_attach(
    ApplicationProvisioner& provisioner, const State& state,
    const std::optional<Rng::State>& forecast_rng) {
  ensure(provisioner_ == nullptr, "AdaptivePolicy: attached twice");
  provisioner_ = &provisioner;
  modeler_.emplace(provisioner.qos(), modeler_config_);
  predictor_->load_state(state.predictor);
  decisions_ = state.decisions;
  if (lookahead_.has_value() && forecast_rng.has_value()) {
    lookahead_->rng.set_state(*forecast_rng);
  }
  analyzer_.emplace(sim_, provisioner, predictor_, analyzer_config_);
  analyzer_->restore([this](SimTime t, double rate) { on_rate_alert(t, rate); },
                     state.analyzer);
}

std::vector<std::size_t> AdaptivePolicy::candidate_targets(
    std::size_t m) const {
  const std::size_t lo = std::max<std::size_t>(std::size_t{1},
                                               modeler_config_.min_vms);
  const std::size_t hi = std::max(lo, modeler_config_.max_vms);
  const std::size_t count =
      std::max<std::size_t>(std::size_t{1}, lookahead_->config.candidates);
  std::vector<std::size_t> targets;
  targets.push_back(std::clamp(m, lo, hi));
  for (std::size_t delta = 1; targets.size() < count; ++delta) {
    const bool below = targets.front() >= lo + delta;
    const bool above = targets.front() + delta <= hi;
    if (below) targets.push_back(targets.front() - delta);
    if (above && targets.size() < count) {
      targets.push_back(targets.front() + delta);
    }
    if (!below && !above) break;  // range exhausted before reaching K
  }
  return targets;
}

std::size_t AdaptivePolicy::search(SimTime t, double expected_rate,
                                   std::size_t m) {
  const LookaheadConfig& config = lookahead_->config;
  if (config.candidates <= 1 && config.bid_levels.empty()) return m;
  WhatIfEngine& engine = *lookahead_->engine;

  WhatIfSpec spec;
  spec.forecast_rate = expected_rate;
  // One forecast seed per search window, shared by every candidate (common
  // random numbers): outcome deltas then isolate the candidate itself.
  spec.forecast_seed = lookahead_->rng.next();
  spec.horizon = t + static_cast<double>(config.horizon_windows) *
                         analyzer_config_.analysis_interval;

  // Candidate 0 is Algorithm 1's own (m, current bid) — the feasibility
  // yardstick. If even that clone fails, skip the search for this window.
  spec.target_instances = m;
  const WhatIfOutcome base = engine.what_if(spec);
  if (!base.valid) return m;

  std::vector<std::optional<double>> bids;
  bids.push_back(std::nullopt);
  if (const std::optional<double> live_bid = engine.current_bid();
      live_bid.has_value()) {
    for (double level : config.bid_levels) {
      if (level > 0.0 && level != *live_bid) bids.emplace_back(level);
    }
  }
  const std::vector<std::size_t> targets = candidate_targets(m);

  double best_cost = base.cost;
  std::size_t best_target = m;
  std::optional<double> best_bid;
  // Every later fork is bounded by what it must beat, so the engine can stop
  // a clone that provably loses; a dominated outcome is skipped like the
  // infeasible or costlier full run it stands for.
  spec.max_rejected = base.rejected;
  spec.max_qos_violations = base.qos_violations;
  for (std::size_t bid_index = 0; bid_index < bids.size(); ++bid_index) {
    for (std::size_t target_index = 0; target_index < targets.size();
         ++target_index) {
      if (bid_index == 0 && target_index == 0) continue;  // the base
      spec.target_instances = targets[target_index];
      spec.bid = bids[bid_index];
      spec.cost_to_beat = best_cost;
      const WhatIfOutcome outcome = engine.what_if(spec);
      // QoS-feasible := no worse than Algorithm 1's own choice on both
      // rejections and response-time violations over the horizon.
      if (!outcome.valid || outcome.dominated ||
          outcome.rejected > base.rejected ||
          outcome.qos_violations > base.qos_violations) {
        continue;
      }
      // Strict < keeps the baseline on ties: deviate only for real wins.
      if (outcome.cost < best_cost) {
        best_cost = outcome.cost;
        best_target = targets[target_index];
        best_bid = bids[bid_index];
      }
    }
  }
  if (best_target != m || best_bid.has_value()) {
    CLOUDPROV_LOG(Debug) << "lookahead: t=" << t << " override m=" << m
                         << " -> " << best_target
                         << (best_bid ? " with new bid" : "") << " (cost "
                         << base.cost << " -> " << best_cost << ")";
  }
  if (best_bid.has_value()) engine.commit_bid(*best_bid);
  return best_target;
}

void AdaptivePolicy::on_rate_alert(SimTime t, double expected_rate) {
  // what_if forks open their own lookahead.fork scopes nested under this
  // one, so decision self time is the model/search logic alone.
  ProfileScope profile(sim_.profiler(), ProfileCategory::kPolicyDecision);
  const double tm = provisioner_->monitored_service_time();
  const std::size_t k = provisioner_->current_queue_bound();
  const ModelerDecision decision = modeler_->required_instances(
      std::max<std::size_t>(provisioner_->active_instances(), 1), expected_rate,
      tm, k);
  // The initial sizing alert (t == 0, fired from attach() before the broker
  // starts) is never searched: there is no world to clone yet, and the
  // paper's initial sizing is Algorithm 1's alone.
  const std::size_t target =
      lookahead_.has_value() && t > 0.0
          ? search(t, expected_rate, decision.instances)
          : decision.instances;
  const std::size_t achieved = provisioner_->scale_to(target);
  // Predicted-* stay Algorithm 1's model outputs for its m: the drift
  // observatory then measures a searched commit against the analytic
  // promise it was allowed to undercut.
  decisions_.push_back(DecisionRecord{
      t, expected_rate, tm, k, target, achieved,
      decision.predicted_response_time, decision.predicted_rejection,
      decision.predicted_utilization});
  if (telemetry_ != nullptr) {
    telemetry_->scaling_decision(t, expected_rate, tm, k, target, achieved);
    feed_drift_monitor(*telemetry_, decisions_.back(),
                       provisioner_->datacenter());
  }
  CLOUDPROV_LOG(Debug) << "adaptive: t=" << t << " lambda=" << expected_rate
                       << " -> m=" << target << " (achieved " << achieved
                       << ")";
}

void feed_drift_monitor(Telemetry& telemetry,
                        const AdaptivePolicy::DecisionRecord& decision,
                        const Datacenter& datacenter) {
  DriftMonitor* drift = telemetry.drift();
  if (drift == nullptr) return;
  DriftMonitor::Prediction prediction;
  prediction.response_time = decision.predicted_response_time;
  prediction.rejection = decision.predicted_rejection;
  prediction.utilization = decision.predicted_utilization;
  prediction.lambda = decision.expected_rate;
  prediction.tm = decision.monitored_service_time;
  prediction.queue_bound = decision.queue_bound;
  prediction.instances = decision.achieved_instances;
  drift->on_decision(decision.time, prediction, datacenter.vm_hours(),
                     datacenter.busy_vm_hours());
}

}  // namespace cloudprov
