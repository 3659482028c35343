// Model-predictive provisioning via co-simulation lookahead.
//
// LookaheadPolicy wraps the paper's adaptive loop (Section IV): the same
// workload analyzer cadence, the same Algorithm 1 baseline sizing. But where
// AdaptivePolicy commits Algorithm 1's answer directly, LookaheadPolicy asks
// a WhatIfEngine to fork K cheap clones of the running world — telemetry off,
// arrivals replaced by a synthetic Poisson stream at the predictor's expected
// rate — advance each H analysis windows into the future under a candidate
// (pool size, spot bid) pair, and score the outcomes on billed cost and
// realized QoS. The cheapest candidate that is no worse than Algorithm 1's
// own choice on rejections and QoS violations is committed; when none
// qualifies the policy falls back to Algorithm 1's m, making the search a
// strict refinement rather than a replacement.
//
// Determinism contract: with candidates <= 1 and no bid levels the engine is
// never consulted and no lookahead RNG draw happens — the policy is then
// bit-identical to AdaptivePolicy (same scale_to / record / telemetry call
// sequence), which the ablation bench and CI smoke assert.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/adaptive_policy.h"
#include "core/performance_modeler.h"
#include "core/provisioning_policy.h"
#include "core/workload_analyzer.h"
#include "predict/predictor.h"
#include "util/rng.h"
#include "workload/source.h"

namespace cloudprov {

class Telemetry;

struct LookaheadConfig {
  /// Candidate pool sizes per search (K). Candidate 0 is always Algorithm 1's
  /// m; the rest ring around it (m-1, m+1, m-2, ...). <= 1 disables the
  /// search entirely (bit-identical to AdaptivePolicy).
  std::size_t candidates = 5;
  /// What-if horizon in analysis windows (H): clones run to
  /// t + horizon_windows * analysis_interval.
  std::size_t horizon_windows = 3;
  /// Spot-bid levels to cross with the candidate pool sizes. Empty keeps the
  /// current bid; ignored when the world has no market layer.
  std::vector<double> bid_levels;
  /// Seed for the forecast stream (SeedStreams::lookahead).
  std::uint64_t seed = 0;
};

/// One what-if question: clone the world, apply the candidate, run ahead.
struct WhatIfSpec {
  std::size_t target_instances = 0;
  /// Spot bid to apply in the clone; nullopt keeps the current bid.
  std::optional<double> bid;
  /// Synthetic arrival rate for the clone's forecast source.
  double forecast_rate = 0.0;
  /// Seed for the clone's forecast draws. The policy draws one seed per
  /// search window and reuses it across that window's candidates (common
  /// random numbers), so outcome differences isolate the candidate.
  std::uint64_t forecast_seed = 0;
  /// Absolute sim time the clone runs to.
  SimTime horizon = 0.0;
};

/// What the clone observed between the fork point and the horizon.
struct WhatIfOutcome {
  bool valid = false;
  /// Billed cost over the clone's remaining run: the market ledger's total
  /// when the market layer is live, a VM-hours proxy otherwise.
  double cost = 0.0;
  std::uint64_t rejected = 0;
  std::uint64_t qos_violations = 0;
  std::uint64_t completed = 0;
};

/// Forks and scores what-if clones. Implemented by experiment::World, which
/// owns the construction recipe needed to rebuild a world from a snapshot;
/// the policy stays ignorant of scenario wiring.
class WhatIfEngine {
 public:
  virtual ~WhatIfEngine() = default;
  virtual WhatIfOutcome what_if(const WhatIfSpec& spec) = 0;
  /// Applies a winning bid to the live market broker.
  virtual void commit_bid(double bid) = 0;
  /// Current live bid, or nullopt when the world has no market layer (bid
  /// search is then skipped).
  virtual std::optional<double> current_bid() const = 0;
};

/// Synthetic Poisson arrival process for what-if clones: exponential
/// interarrivals at a fixed forecast rate, service demands drawn as
/// base * U(1, 1 + spread) — the same family as the scenario sources, so a
/// clone's service-time statistics stay in-distribution.
class PoissonForecastSource final : public RequestSource {
 public:
  PoissonForecastSource(double rate, double service_base, double service_spread,
                        SimTime start_time)
      : rate_(rate),
        service_base_(service_base),
        service_spread_(service_spread),
        cursor_(start_time) {}

  std::optional<Arrival> next(Rng& rng) override {
    if (rate_ <= 0.0) return std::nullopt;
    cursor_ += rng.exponential(rate_);
    Arrival arrival;
    arrival.time = cursor_;
    arrival.service_demand =
        service_base_ * rng.uniform(1.0, 1.0 + service_spread_);
    return arrival;
  }

  double expected_rate(SimTime) const override { return rate_; }
  std::string name() const override { return "forecast-poisson"; }

 private:
  double rate_;
  double service_base_;
  double service_spread_;
  SimTime cursor_;
};

class LookaheadPolicy final : public ProvisioningPolicy {
 public:
  LookaheadPolicy(Simulation& sim,
                  std::shared_ptr<ArrivalRatePredictor> predictor,
                  ModelerConfig modeler_config, AnalyzerConfig analyzer_config,
                  LookaheadConfig lookahead_config);

  void attach(ApplicationProvisioner& provisioner) override;
  std::string name() const override { return "Lookahead"; }

  /// Wires the what-if engine. Must be set before the first analysis window
  /// for the search to run; without it the policy degrades to AdaptivePolicy
  /// behavior. Never owned.
  void set_engine(WhatIfEngine* engine) { engine_ = engine; }
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  const LookaheadConfig& config() const { return config_; }
  using DecisionRecord = AdaptivePolicy::DecisionRecord;
  const std::vector<DecisionRecord>& decisions() const { return decisions_; }

  /// Searches run (windows where the engine was consulted) and commits that
  /// deviated from Algorithm 1's m — the bench's ablation counters.
  std::uint64_t searches() const { return searches_; }
  std::uint64_t overrides() const { return overrides_; }

  // --- checkpoint support ------------------------------------------------
  /// Shares AdaptivePolicy's state shape (analyzer + predictor + decisions);
  /// the forecast stream is carried separately (WorldState::lookahead_rng).
  AdaptivePolicy::State checkpoint(bool include_decisions) const;
  void restore_attach(ApplicationProvisioner& provisioner,
                      const AdaptivePolicy::State& state,
                      const std::optional<Rng::State>& rng_state);
  Rng::State rng_state() const { return rng_.state(); }

 private:
  void on_rate_alert(SimTime t, double expected_rate);
  bool search_enabled() const;
  std::vector<std::size_t> candidate_targets(std::size_t m) const;

  Simulation& sim_;
  std::shared_ptr<ArrivalRatePredictor> predictor_;
  ModelerConfig modeler_config_;
  AnalyzerConfig analyzer_config_;
  LookaheadConfig config_;

  ApplicationProvisioner* provisioner_ = nullptr;
  WhatIfEngine* engine_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  std::optional<PerformanceModeler> modeler_;
  std::optional<WorkloadAnalyzer> analyzer_;
  std::vector<DecisionRecord> decisions_;
  Rng rng_;
  std::uint64_t searches_ = 0;
  std::uint64_t overrides_ = 0;
};

}  // namespace cloudprov
