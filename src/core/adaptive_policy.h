// Adaptive provisioning policy — the paper's contribution (Section IV),
// assembling the three components: workload analyzer -> load predictor and
// performance modeler -> application provisioner.
//
// On every analyzer alert the modeler runs Algorithm 1 against the expected
// arrival rate and the monitored service time; the resulting pool size is
// applied through ApplicationProvisioner::scale_to, which handles graceful
// drain/resurrect semantics.
//
// An optional lookahead search (set_lookahead) sits between Algorithm 1 and
// scale_to: a WhatIfEngine forks K cheap clones of the running world —
// telemetry off, arrivals replaced by a synthetic Poisson stream at the
// predictor's expected rate — advances each H analysis windows under a
// candidate (pool size, spot bid) pair, and scores the outcomes on billed
// cost and realized QoS. The cheapest candidate that is no worse than
// Algorithm 1's own choice on rejections and QoS violations is committed;
// when none qualifies Algorithm 1's m stands, making the search a strict
// refinement rather than a replacement. With candidates <= 1 and no bid
// levels the engine is never consulted and no forecast seed is drawn.
//
// The search is a branch and bound: Algorithm 1's own candidate runs
// unbounded, and every later fork carries that candidate's rejections and
// QoS violations as maxima and the running best cost as the cost to beat.
// The engine may stop a fork that provably breaks one; the search skips it
// as it would skip the full run, so every decision is the same as with
// unbounded forks.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/performance_modeler.h"
#include "core/provisioning_policy.h"
#include "core/workload_analyzer.h"
#include "predict/predictor.h"
#include "util/rng.h"

namespace cloudprov {

class Telemetry;

struct LookaheadConfig {
  /// Candidate pool sizes per search (K). Candidate 0 is always Algorithm 1's
  /// m; the rest ring around it (m-1, m+1, m-2, ...). <= 1 with no bid
  /// levels disables the search entirely (bit-identical to no search).
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
  /// What the candidate must stay within to win the search: at most this
  /// many rejections and QoS violations, and a cost strictly below
  /// cost_to_beat. The defaults leave the clone unbounded.
  std::uint64_t max_rejected = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_qos_violations =
      std::numeric_limits<std::uint64_t>::max();
  double cost_to_beat = std::numeric_limits<double>::infinity();
};

/// What the clone observed between the fork point and the horizon.
struct WhatIfOutcome {
  bool valid = false;
  /// The clone stopped before the horizon because its full run would break
  /// a bound of its spec; the counts and cost below are then left at zero.
  bool dominated = false;
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
  /// Runs the candidate to spec.horizon and reports what it observed. The
  /// engine may stop the clone early and set `dominated` only when the full
  /// run would break one of spec's bounds; otherwise it returns the full
  /// outcome, exactly as if the spec had no bounds.
  virtual WhatIfOutcome what_if(const WhatIfSpec& spec) = 0;
  /// Applies a winning bid to the live market broker.
  virtual void commit_bid(double bid) = 0;
  /// Current live bid, or nullopt when the world has no market layer (bid
  /// search is then skipped).
  virtual std::optional<double> current_bid() const = 0;
};

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

  /// Adds the lookahead search, forecasting on a stream seeded with
  /// config.seed. The engine is never owned. Set before attach() or
  /// restore_attach().
  void set_lookahead(WhatIfEngine* engine, LookaheadConfig config);

  /// One provisioning decision (Algorithm 1 inputs + outcome), for
  /// diagnostics, the examples, and the decision-timeline CSV.
  struct DecisionRecord {
    SimTime time = 0.0;
    double expected_rate = 0.0;         ///< lambda fed to the modeler
    double monitored_service_time = 0.0;  ///< Tm at decision time
    std::size_t queue_bound = 0;        ///< k (Equation 1) at decision time
    std::size_t target_instances = 0;
    std::size_t achieved_instances = 0;
    // What the M/M/1/k model promised for Algorithm 1's pool size — paired
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
  /// The search's forecast-stream position; nullopt without a search.
  std::optional<Rng::State> forecast_rng_state() const;
  /// attach() variant for a restored world: binds the provisioner, restores
  /// the predictor fit, analyzer tick and (with a search attached) the
  /// forecast stream, and replays no initial sizing.
  void restore_attach(ApplicationProvisioner& provisioner, const State& state,
                      const std::optional<Rng::State>& forecast_rng);

 private:
  struct Lookahead {
    WhatIfEngine* engine = nullptr;
    LookaheadConfig config;
    Rng rng;
  };

  void on_rate_alert(SimTime t, double expected_rate);
  /// The lookahead step: the pool size to commit instead of Algorithm 1's
  /// `m`, committing a winning bid on the way.
  std::size_t search(SimTime t, double expected_rate, std::size_t m);
  std::vector<std::size_t> candidate_targets(std::size_t m) const;

  Simulation& sim_;
  std::shared_ptr<ArrivalRatePredictor> predictor_;
  ModelerConfig modeler_config_;
  AnalyzerConfig analyzer_config_;

  ApplicationProvisioner* provisioner_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  std::optional<PerformanceModeler> modeler_;
  std::optional<WorkloadAnalyzer> analyzer_;
  std::vector<DecisionRecord> decisions_;
  std::optional<Lookahead> lookahead_;
};

/// Hands the drift observatory the model's promise for `decision`, just
/// committed on `datacenter`'s pool. A no-op unless `telemetry` runs a drift
/// monitor. AdaptivePolicy and TieredProvisioner's backend half both feed it.
void feed_drift_monitor(Telemetry& telemetry,
                        const AdaptivePolicy::DecisionRecord& decision,
                        const Datacenter& datacenter);

}  // namespace cloudprov
