// The layer set of the end-to-end benchmark's web_layers workload, shared by
// the tests that pin or audit it: spans at 0.1, the drift and SLO monitors,
// an active retry gateway (0.5 s attempt timeouts, three jittered attempts,
// a retry budget and a breaker), a spot market, VM faults and the
// reconciler, over one web day.
#pragma once

#include <cstdint>

#include "experiment/scenario.h"
#include "telemetry/telemetry.h"

namespace cloudprov {

inline ScenarioConfig layered_web_config(double scale) {
  ScenarioConfig config = web_scenario(scale);
  config.horizon = 86400.0;
  config.web.horizon = config.horizon;
  ResilienceConfig& res = config.resilience;
  res.enabled = true;
  res.attempt_timeout = 0.5;
  res.retry.max_attempts = 3;
  res.retry.backoff = RetryPolicyConfig::Backoff::kExpoJitter;
  res.budget.enabled = true;
  res.breaker.enabled = true;
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.7;
  config.fault.vm_mtbf = 6.0 * 3600.0;
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
  return config;
}

inline TelemetryOptions layered_web_telemetry(const ScenarioConfig& config,
                                              std::uint64_t seed) {
  TelemetryOptions opts;
  opts.span_sample_rate = 0.1;
  opts.span_seed = seed;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  opts.slo_enabled = true;
  opts.slo.log_alerts = false;
  return opts;
}

}  // namespace cloudprov
