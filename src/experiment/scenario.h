// Scenario and policy specifications for the paper's evaluation
// (Section V): the web (Wikipedia) and scientific (BoT) usage scenarios,
// each runnable under the adaptive policy or a static baseline.
//
// A `scale` factor multiplies all arrival rates, and — so comparisons stay
// meaningful — the static baseline sizes are specified at paper scale and
// scaled alongside. Shapes (who wins, crossover sizes, savings ratios) are
// preserved; absolute instance counts shrink with the rate. scale = 1
// reproduces the paper exactly (~500M web requests/week).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apptier/apptier_config.h"
#include "cloud/datacenter.h"
#include "core/adaptive_policy.h"
#include "core/performance_modeler.h"
#include "core/qos.h"
#include "core/workload_analyzer.h"
#include "fault/fault_plan.h"
#include "fault/reconciler.h"
#include "market/market_broker.h"
#include "resilience/resilience_config.h"
#include "workload/bot_workload.h"
#include "workload/web_workload.h"
#include "workload/zipf_workload.h"

namespace cloudprov {

enum class WorkloadKind { kWeb, kScientific, kZipf };
enum class PredictorKind { kProfile, kOracle, kEwma, kMovingAverage, kAr, kQrsm };

std::string to_string(WorkloadKind kind);
std::string to_string(PredictorKind kind);

struct PolicySpec {
  enum class Kind { kAdaptive, kStatic, kLookahead };
  Kind kind = Kind::kAdaptive;
  /// Static pool size at paper scale (scaled by ScenarioConfig::scale).
  std::size_t static_instances = 0;
  /// Predictor used by the adaptive and lookahead policies.
  PredictorKind predictor = PredictorKind::kProfile;
  /// Co-simulation search knobs (kLookahead only). The forecast-stream seed
  /// is derived per replication (SeedStreams::lookahead), not taken from
  /// here.
  LookaheadConfig lookahead;

  static PolicySpec adaptive(PredictorKind predictor = PredictorKind::kProfile);
  static PolicySpec fixed(std::size_t instances);
  /// Model-predictive provisioner: K candidate pool sizes evaluated H
  /// analysis windows ahead in what-if clones of the world (src/lookahead).
  static PolicySpec lookahead_spec(
      std::size_t candidates, std::size_t horizon_windows,
      PredictorKind predictor = PredictorKind::kProfile,
      std::vector<double> bid_levels = {});
  std::string label(double scale) const;
};

struct ScenarioConfig {
  WorkloadKind workload = WorkloadKind::kWeb;
  double scale = 1.0;
  SimTime horizon = 0.0;  ///< filled by the factory

  QosTargets qos;
  ModelerConfig modeler;
  AnalyzerConfig analyzer;
  DatacenterConfig datacenter;
  double initial_service_time_estimate = 0.1;

  WebWorkloadConfig web;
  BotWorkloadConfig bot;
  /// Keyed Zipf workload (WorkloadKind::kZipf; src/workload/zipf_workload.h).
  ZipfWorkloadConfig zipf;

  /// Multi-tier application layer (src/apptier): cache tier in front of the
  /// backend pool. ApptierConfig::enabled defaults to false, keeping every
  /// existing scenario single-tier and bit-identical to previous outputs.
  ApptierConfig apptier;

  /// Fault injection (src/fault): disabled by default, so the paper
  /// scenarios stay fault-free and byte-identical to previous outputs.
  FaultPlan fault;
  /// Self-healing reconciler; ReconcilerConfig::enabled defaults to false.
  ReconcilerConfig reconciler;
  /// Provisioner boot watchdog (ProvisionerConfig::boot_timeout); 0 off.
  SimTime boot_timeout = 0.0;

  /// IaaS market layer (src/market): MarketConfig::enabled defaults to
  /// false, keeping the paper scenarios market-free and byte-identical to
  /// previous outputs. Enabled with pure on-demand terms it is still a
  /// strict no-op on every simulation observable.
  MarketConfig market;

  /// Request-path resilience layer (src/resilience): client retries /
  /// timeouts / budget / breaker plus server-side load shedding.
  /// ResilienceConfig::enabled defaults to false; enabled with every
  /// feature neutral (no timeout, one attempt, no budget/breaker/shed) it
  /// is still a strict no-op on every simulation observable.
  ResilienceConfig resilience;

  /// Scales a paper-scale instance count to this scenario's scale,
  /// rounding to at least 1.
  std::size_t scaled_instances(std::size_t paper_scale_count) const;

  /// Runs the scenario to `run_horizon`: sets `horizon` and every
  /// workload's source horizon, so no source stops early or runs past it.
  void set_horizon(SimTime run_horizon);
};

/// Web scenario (Section V-B1): 1-week Wikipedia-model workload,
/// Ts = 250 ms, Tr = 100 ms (+0-10%), zero rejection target, 80% utilization
/// floor. Paper baselines: Static-{50,75,100,125,150}.
ScenarioConfig web_scenario(double scale = 1.0);

/// Scientific scenario (Section V-B2): 1-day BoT workload, Ts = 700 s,
/// Tr = 300 s (+0-10%). Paper baselines: Static-{15,30,45,60,75}.
ScenarioConfig scientific_scenario(double scale = 1.0);

/// Keyed key-value scenario: 1-day Zipf(0.9) workload over 20k keys with the
/// web scenario's QoS (250 ms, zero rejection). Tiers stay OFF by default —
/// set `apptier.enabled = true` for a cache tier in front of the backend.
ScenarioConfig zipf_scenario(double scale = 1.0);

/// The static baseline sizes evaluated in Figure 5 / Figure 6 (paper scale).
std::vector<std::size_t> paper_static_sizes(WorkloadKind kind);

}  // namespace cloudprov
