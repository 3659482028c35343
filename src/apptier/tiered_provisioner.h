// Per-tier Algorithm 1: the multi-tier analog of AdaptivePolicy.
//
// One workload analyzer taps the cache tier's front door, so the predictor
// sees the TOTAL expected arrival rate lambda. Every analysis window the
// provisioner then plans both pools:
//
//   cache tier   : Algorithm 1 at lambda_cache = lambda * h      (hits)
//   backend tier : Algorithm 1 at lambda_miss  = lambda * (1-h)  (misses)
//
// where h is the cache tier's live planning hit ratio (EWMA over closed
// windows) — the feedback loop that lets the backend shrink as the cache
// warms. Before the first window closes the cache plans with the configured
// assumed hit ratio while the backend conservatively assumes h = 0.
//
// The decomposed miss path (cache lookup stage -> backend stage) is solved
// through queueing::solve_tandem for a predicted end-to-end response time,
// recorded per window in the cache tier's series: predicted E2E =
// h * R_cache + (1-h) * R_tandem(miss path).
//
// Checkpointing reuses AdaptivePolicy::State verbatim for the backend half
// (analyzer + shared predictor + backend decision log), so WorldState.policy
// and the disk codec need no new shape; the cache-tier decision log rides in
// ApptierState.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "apptier/cache_tier.h"
#include "core/adaptive_policy.h"
#include "core/performance_modeler.h"
#include "core/workload_analyzer.h"

namespace cloudprov {

class TieredProvisioner {
 public:
  TieredProvisioner(Simulation& sim,
                    std::shared_ptr<ArrivalRatePredictor> predictor,
                    ModelerConfig backend_modeler_config,
                    AnalyzerConfig analyzer_config, ApptierConfig config);

  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Binds both pools and the tier, performs initial sizing (cache pool to
  /// config.cache_vms, backend via the initial alert), and starts the
  /// analysis process.
  void attach(ApplicationProvisioner& backend, ApplicationProvisioner& cache,
              CacheTier& tier);

  /// Backend-half checkpoint, shape-compatible with AdaptivePolicy::State.
  AdaptivePolicy::State checkpoint(bool include_decisions) const;
  /// Restore counterpart of attach(): no initial sizing, analyzer re-armed
  /// under its snapshot stamp.
  void restore_attach(ApplicationProvisioner& backend,
                      ApplicationProvisioner& cache, CacheTier& tier,
                      const AdaptivePolicy::State& state);

  const std::vector<AdaptivePolicy::DecisionRecord>& decisions() const {
    return decisions_;
  }
  const std::vector<AdaptivePolicy::DecisionRecord>& cache_decisions() const {
    return cache_decisions_;
  }
  /// Snapshot/restore of the cache-tier decision log (ApptierState).
  void restore_cache_decisions(
      std::vector<AdaptivePolicy::DecisionRecord> decisions) {
    cache_decisions_ = std::move(decisions);
  }

  std::string name() const { return "tiered(cache+backend)"; }

 private:
  void bind(ApplicationProvisioner& backend, ApplicationProvisioner& cache,
            CacheTier& tier);
  void on_rate_alert(SimTime t, double expected_rate);

  Simulation& sim_;
  std::shared_ptr<ArrivalRatePredictor> predictor_;
  ModelerConfig backend_modeler_config_;
  AnalyzerConfig analyzer_config_;
  ApptierConfig config_;
  Telemetry* telemetry_ = nullptr;

  ApplicationProvisioner* backend_ = nullptr;
  ApplicationProvisioner* cache_ = nullptr;
  CacheTier* tier_ = nullptr;
  std::optional<PerformanceModeler> backend_modeler_;
  std::optional<PerformanceModeler> cache_modeler_;
  std::optional<WorkloadAnalyzer> analyzer_;
  std::vector<AdaptivePolicy::DecisionRecord> decisions_;        ///< backend
  std::vector<AdaptivePolicy::DecisionRecord> cache_decisions_;  ///< cache
};

}  // namespace cloudprov
