// World: one fully wired replication — simulation engine, data center,
// provisioner, optional market/fault/reconciler layers, workload broker,
// and the provisioning policy — plus the snapshot/restore machinery that
// makes it a value.
//
// A World can be built two ways from the same (ScenarioConfig, PolicySpec,
// seed) triple:
//   - fresh: construct, start(), run_to(horizon), finish()   (what
//     run_scenario does), or
//   - restored: construct from a WorldState snapshot, which rebuilds every
//     component, re-pushes their pending events under the original
//     (time, seq) stamps, and restores the clock — the continued run is
//     bit-identical to the uninterrupted one.
//
// World also implements WhatIfEngine for AdaptivePolicy's lookahead search:
// what_if() forks a throwaway clone from a cached snapshot, applies the
// candidate, runs it to the horizon, and reports cost/QoS. The live world is
// untouched. A clone runs with telemetry and tail quantiles off and arrivals
// replaced by a Poisson forecast, and it shares the parent's profile table
// instead of rebuilding it: it pays only for the simulation it runs. A
// clone runs in steps of a twelfth of an analysis window and stops,
// reported dominated, after the first step that leaves it over the spec's
// rejection or QoS-violation maximum or, without a market, at or above its
// cost to beat: it would lose at the horizon too.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "apptier/tiered_provisioner.h"
#include "cloud/broker.h"
#include "experiment/metrics.h"
#include "experiment/scenario.h"
#include "lookahead/world_state.h"
#include "resilience/retry_gateway.h"
#include "resilience/shedding_admission.h"
#include "telemetry/telemetry.h"

namespace cloudprov {

class PeriodicProfilePredictor;
class WallProfiler;

struct RunOutput {
  RunMetrics metrics;
  /// Adaptive/lookahead decision history (empty for static runs).
  std::vector<AdaptivePolicy::DecisionRecord> decisions;
  /// Market ledger + realized spot path (src/market); nullopt unless the
  /// scenario enabled the market.
  std::optional<MarketReport> market;
  /// The replication's telemetry collector (metrics registry + trace
  /// buffer); null unless telemetry was requested. Telemetry is purely
  /// observational: metrics are identical with it on or off.
  std::unique_ptr<Telemetry> telemetry;
  /// Cache tier per-window series (hit ratio, lambda_miss, predicted E2E);
  /// empty unless the scenario enabled the apptier and the policy planned
  /// windows. The warmup-transient time series of AB14.
  std::vector<ApptierState::WindowSample> apptier_series;
};

/// The scenario's workload generator (web or BoT). Exposed for rate-curve
/// sampling and oracle predictors outside a full World.
std::unique_ptr<RequestSource> make_scenario_source(
    const ScenarioConfig& config);

class World final : public WhatIfEngine {
 public:
  /// Fresh world at t = 0. Call start() before run_to(). An optional
  /// profiler (borrowed, output-only) attributes the replication's wall
  /// time; what-if clones never inherit it, so fork cost lands in the
  /// parent's lookahead.fork scope.
  World(const ScenarioConfig& config, const PolicySpec& policy,
        std::uint64_t seed,
        const std::optional<TelemetryOptions>& telemetry_opts = std::nullopt,
        WallProfiler* profiler = nullptr);

  /// Restored world: resumes from `state` at state.now. The triple
  /// (config, policy, seed) must match the world the snapshot was taken
  /// from; this is unchecked (checkpoints carry no config). Do not call
  /// start() on a restored world.
  World(const ScenarioConfig& config, const PolicySpec& policy,
        std::uint64_t seed, const WorldState& state,
        WallProfiler* profiler = nullptr);

  ~World() override;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Initial policy sizing + component start processes. Fresh worlds only.
  void start();
  /// Runs the engine until `t` (inclusive of events at t). Throws
  /// std::invalid_argument when `t` < now(): a world never runs backwards,
  /// and finish() would report the metrics of the later clock.
  void run_to(SimTime t);
  SimTime now() const;
  const Simulation& sim() const { return sim_; }
  Telemetry* telemetry() { return telemetry_.get(); }
  /// Re-points the world's profiler (borrowed, output-only; may be null):
  /// its own scopes and its kernel's, through which every component opens
  /// its scopes. The multi-tenant executor hands each world the profiler of
  /// the worker about to advance it.
  void set_profiler(WallProfiler* profiler) {
    profiler_ = profiler;
    sim_.set_profiler(profiler);
  }

  // --- multi-tenant capacity arbitration seam -----------------------------
  /// What this application's policy last asked for, pre-clamp: the arbiter
  /// reads desires at every window barrier.
  std::size_t desired_instances() const;
  /// Installs the arbiter's grant as the provisioner's capacity cap (the
  /// pool immediately re-sizes toward min(desire, grant)).
  void apply_capacity_grant(std::size_t grant);
  /// Cheap monotone progress counters, readable mid-run without finalizing
  /// anything: the worker-local telemetry batches of the multi-tenant
  /// executor read these after every window advance, and finish() reports
  /// them. Tiered worlds fold both pools in (and report the tier's
  /// end-to-end QoS accounting). Every field is an integer, so a sum of
  /// deltas is exact in any grouping: a fleet window row does not depend
  /// on which worker advanced which tenant.
  struct Counters {
    std::uint64_t generated = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t qos_violations = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;

    Counters& operator+=(const Counters& other) {
      generated += other.generated;
      accepted += other.accepted;
      rejected += other.rejected;
      completed += other.completed;
      qos_violations += other.qos_violations;
      cache_hits += other.cache_hits;
      cache_misses += other.cache_misses;
      return *this;
    }
    /// What accrued since `earlier`, a reading of the same world.
    Counters operator-(const Counters& earlier) const {
      return {generated - earlier.generated,
              accepted - earlier.accepted,
              rejected - earlier.rejected,
              completed - earlier.completed,
              qos_violations - earlier.qos_violations,
              cache_hits - earlier.cache_hits,
              cache_misses - earlier.cache_misses};
    }
  };
  Counters counters() const;
  /// Live resilience gateway (nullptr when the layer is disabled): lets the
  /// retry-storm ablation sample client goodput at the trigger boundary.
  const RetryGateway* gateway() const {
    return gateway_.has_value() ? &*gateway_ : nullptr;
  }

  /// The whole world as a value. `include_records` = false leaves out the
  /// telemetry clone and the decision logs: they record the run but never
  /// change it, and what-if forks drop them.
  WorldState snapshot(bool include_records = true) const;

  /// Finalizes monitors/ledgers at the current clock and extracts the
  /// paper's output metrics. Call once, after the horizon was reached;
  /// consumes the telemetry collector.
  RunOutput finish();

  // --- WhatIfEngine (AdaptivePolicy's lookahead search) -------------------
  /// Bounds only the counts when the world has a market: the ledger's cost
  /// is final only after MarketBroker::total_cost(), which advances the spot
  /// price path.
  WhatIfOutcome what_if(const WhatIfSpec& spec) override;
  void commit_bid(double bid) override;
  std::optional<double> current_bid() const override;

 private:
  /// What-if clone of `parent`, resumed from `base` (a snapshot of the
  /// parent) with the fork's deviations: an AdaptivePolicy without a search
  /// (clones must not recursively search), arrivals from a Poisson forecast at
  /// fork.forecast_rate on a fork.forecast_seed stream, fork.bid applied to
  /// the market, and fork.target_instances commanded at the fork instant.
  World(const World& parent, const WorldState& base, const WhatIfSpec& fork);
  /// Restore body of both restoring constructors; `fork` is null for a
  /// faithful resume. The kernel is sized for `event_capacity` pending
  /// events: a clone passes its parent's slab high-water mark, so its slab,
  /// heap and lane are allocated once.
  void restore(const WorldState& state, const WhatIfSpec* fork,
               std::size_t event_capacity);
  /// Shared wiring for every constructor: everything up to (but excluding)
  /// source/broker/policy construction and any restore call. What-if
  /// clones pass track_quantiles = false: no outcome reads their P² tails.
  void build_platform(bool track_quantiles);
  /// The backend's sink: the resilience gateway when enabled, else the
  /// provisioner directly. In tiered worlds this is where cache MISSES go.
  RequestSink& request_sink();
  /// The Broker's sink: the cache tier when apptier is enabled, else
  /// request_sink() directly.
  RequestSink& front_door();
  /// The scenario's policy, restored from `restored` when non-null. A
  /// lookahead policy searches through this world unless it is a what-if
  /// clone (`fork` non-null).
  void build_policy(const WorldState* restored, const WhatIfSpec* fork);

  /// The event kernel every component is wired against. Declared first,
  /// so it is destroyed last: components cancel their pending events in
  /// their destructors.
  Simulation sim_;
  ScenarioConfig config_;
  PolicySpec policy_;
  std::uint64_t seed_;
  SeedStreams streams_;
  std::chrono::steady_clock::time_point wall_start_;
  WallProfiler* profiler_ = nullptr;

  std::unique_ptr<Telemetry> telemetry_;
  std::optional<Datacenter> datacenter_;
  std::optional<ApplicationProvisioner> provisioner_;
  std::optional<MarketBroker> market_;
  std::optional<FaultInjector> faults_;
  std::optional<Reconciler> reconciler_;
  /// Client-side resilience gateway (src/resilience); present iff
  /// config_.resilience.enabled. The Broker's sink when present.
  std::optional<RetryGateway> gateway_;
  /// The provisioner's shedding admission policy (owned by the provisioner);
  /// null unless shedding is configured.
  SheddingAdmission* shedding_ = nullptr;
  /// Multi-tier application layer (src/apptier); present iff
  /// config_.apptier.enabled. The cache pool lives in its own small
  /// datacenter (separate VM id space, untelemetered at the VM level) and
  /// the tier is the broker's sink, forwarding misses to request_sink().
  std::optional<Datacenter> cache_datacenter_;
  std::optional<ApplicationProvisioner> cache_provisioner_;
  std::optional<CacheTier> cache_tier_;
  std::unique_ptr<RequestSource> source_;
  std::optional<Broker> broker_;
  std::unique_ptr<ProvisioningPolicy> prov_policy_;
  AdaptivePolicy* adaptive_ = nullptr;
  /// Per-tier Algorithm 1 (replaces AdaptivePolicy in tiered worlds).
  std::unique_ptr<TieredProvisioner> tiered_;
  bool started_ = false;

  /// what_if() base-snapshot cache: all candidates of one search window
  /// fork from the same frozen world, snapshotted once.
  std::optional<WorldState> whatif_base_;
  /// The scenario's periodic profile predictor (PredictorKind::kProfile on
  /// web or scientific workloads), built on first use; every policy gets a
  /// copy, and what-if clones inherit it, so all of them share one table.
  std::shared_ptr<const PeriodicProfilePredictor> profile_;
};

}  // namespace cloudprov
