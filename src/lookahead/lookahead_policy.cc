#include "lookahead/lookahead_policy.h"

#include <algorithm>

#include "profile/wall_profiler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

LookaheadPolicy::LookaheadPolicy(
    Simulation& sim, std::shared_ptr<ArrivalRatePredictor> predictor,
    ModelerConfig modeler_config, AnalyzerConfig analyzer_config,
    LookaheadConfig lookahead_config)
    : sim_(sim),
      predictor_(std::move(predictor)),
      modeler_config_(modeler_config),
      analyzer_config_(analyzer_config),
      config_(std::move(lookahead_config)),
      rng_(config_.seed) {
  ensure_arg(predictor_ != nullptr, "LookaheadPolicy: null predictor");
}

void LookaheadPolicy::attach(ApplicationProvisioner& provisioner) {
  ensure(provisioner_ == nullptr, "LookaheadPolicy: attached twice");
  provisioner_ = &provisioner;
  modeler_.emplace(provisioner.qos(), modeler_config_);
  analyzer_.emplace(sim_, provisioner, predictor_, analyzer_config_);
  analyzer_->start(
      [this](SimTime t, double rate) { on_rate_alert(t, rate); });
}

AdaptivePolicy::State LookaheadPolicy::checkpoint(
    bool include_decisions) const {
  ensure(analyzer_.has_value(), "LookaheadPolicy::checkpoint: not attached");
  AdaptivePolicy::State state;
  state.analyzer = analyzer_->checkpoint();
  predictor_->save_state(state.predictor);
  if (include_decisions) state.decisions = decisions_;
  return state;
}

void LookaheadPolicy::restore_attach(ApplicationProvisioner& provisioner,
                                     const AdaptivePolicy::State& state,
                                     const std::optional<Rng::State>& rng_state) {
  ensure(provisioner_ == nullptr, "LookaheadPolicy: attached twice");
  provisioner_ = &provisioner;
  modeler_.emplace(provisioner.qos(), modeler_config_);
  predictor_->load_state(state.predictor);
  decisions_ = state.decisions;
  if (rng_state.has_value()) rng_.set_state(*rng_state);
  analyzer_.emplace(sim_, provisioner, predictor_, analyzer_config_);
  analyzer_->restore([this](SimTime t, double rate) { on_rate_alert(t, rate); },
                     state.analyzer);
}

bool LookaheadPolicy::search_enabled() const {
  return config_.candidates > 1 || !config_.bid_levels.empty();
}

std::vector<std::size_t> LookaheadPolicy::candidate_targets(
    std::size_t m) const {
  const std::size_t lo = std::max<std::size_t>(std::size_t{1},
                                               modeler_config_.min_vms);
  const std::size_t hi = std::max(lo, modeler_config_.max_vms);
  const std::size_t count = std::max<std::size_t>(std::size_t{1},
                                                  config_.candidates);
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

void LookaheadPolicy::on_rate_alert(SimTime t, double expected_rate) {
  // what_if forks open their own lookahead.fork scopes nested under this
  // one, so decision self time is the model/search logic alone.
  ProfileScope profile(sim_.profiler(), ProfileCategory::kPolicyDecision);
  const double tm = provisioner_->monitored_service_time();
  const std::size_t k = provisioner_->current_queue_bound();
  const ModelerDecision decision = modeler_->required_instances(
      std::max<std::size_t>(provisioner_->active_instances(), 1), expected_rate,
      tm, k);

  std::size_t target = decision.instances;
  // The initial sizing alert (t == 0, fired from attach() before the broker
  // starts) is never searched: there is no world to clone yet, and the paper's
  // initial sizing should match the adaptive baseline exactly.
  if (search_enabled() && engine_ != nullptr && t > 0.0) {
    ++searches_;
    const SimTime horizon =
        t + static_cast<double>(config_.horizon_windows) *
                analyzer_config_.analysis_interval;
    // One forecast seed per search window, shared by every candidate (common
    // random numbers): outcome deltas then isolate the candidate itself.
    const std::uint64_t window_seed = rng_.next();

    WhatIfSpec spec;
    spec.forecast_rate = expected_rate;
    spec.forecast_seed = window_seed;
    spec.horizon = horizon;

    // Candidate 0 is Algorithm 1's own (m, current bid) — the feasibility
    // yardstick. If even that clone fails, skip the search for this window.
    spec.target_instances = decision.instances;
    spec.bid = std::nullopt;
    const WhatIfOutcome base = engine_->what_if(spec);
    if (base.valid) {
      std::vector<std::optional<double>> bids;
      bids.push_back(std::nullopt);
      if (const std::optional<double> live_bid = engine_->current_bid();
          live_bid.has_value()) {
        for (double level : config_.bid_levels) {
          if (level > 0.0 && level != *live_bid) bids.emplace_back(level);
        }
      }
      const std::vector<std::size_t> targets =
          candidate_targets(decision.instances);

      double best_cost = base.cost;
      std::size_t best_target = decision.instances;
      std::optional<double> best_bid;
      for (std::size_t bid_index = 0; bid_index < bids.size(); ++bid_index) {
        for (std::size_t target_index = 0; target_index < targets.size();
             ++target_index) {
          if (bid_index == 0 && target_index == 0) continue;  // the base
          spec.target_instances = targets[target_index];
          spec.bid = bids[bid_index];
          const WhatIfOutcome outcome = engine_->what_if(spec);
          // QoS-feasible := no worse than Algorithm 1's own choice on both
          // rejections and response-time violations over the horizon.
          if (!outcome.valid || outcome.rejected > base.rejected ||
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
      if (best_target != decision.instances || best_bid.has_value()) {
        ++overrides_;
        CLOUDPROV_LOG(Debug)
            << "lookahead: t=" << t << " override m=" << decision.instances
            << " -> " << best_target
            << (best_bid ? " with new bid" : "")
            << " (cost " << base.cost << " -> " << best_cost << ")";
      }
      target = best_target;
      if (best_bid.has_value()) engine_->commit_bid(*best_bid);
    }
  }

  const std::size_t achieved = provisioner_->scale_to(target);
  // Predicted-* stay Algorithm 1's model outputs for its m: the drift
  // observatory then measures the committed candidate against the analytic
  // promise it was allowed to undercut.
  decisions_.push_back(DecisionRecord{
      t, expected_rate, tm, k, target, achieved,
      decision.predicted_response_time, decision.predicted_rejection,
      decision.predicted_utilization});
  if (telemetry_ != nullptr) {
    telemetry_->scaling_decision(t, expected_rate, tm, k, target, achieved);
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
  CLOUDPROV_LOG(Debug) << "lookahead: t=" << t << " lambda=" << expected_rate
                       << " -> m=" << target << " (achieved " << achieved
                       << ")";
}

}  // namespace cloudprov
