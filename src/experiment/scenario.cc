#include "experiment/scenario.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudprov {

std::string to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kWeb: return "web";
    case WorkloadKind::kScientific: return "scientific";
    case WorkloadKind::kZipf: return "zipf";
  }
  return "?";
}

std::string to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kProfile: return "profile";
    case PredictorKind::kOracle: return "oracle";
    case PredictorKind::kEwma: return "ewma";
    case PredictorKind::kMovingAverage: return "moving-average";
    case PredictorKind::kAr: return "ar";
    case PredictorKind::kQrsm: return "qrsm";
  }
  return "?";
}

PolicySpec PolicySpec::adaptive(PredictorKind predictor) {
  PolicySpec spec;
  spec.kind = Kind::kAdaptive;
  spec.predictor = predictor;
  return spec;
}

PolicySpec PolicySpec::fixed(std::size_t instances) {
  ensure_arg(instances >= 1, "PolicySpec::fixed: need at least one instance");
  PolicySpec spec;
  spec.kind = Kind::kStatic;
  spec.static_instances = instances;
  return spec;
}

PolicySpec PolicySpec::lookahead_spec(std::size_t candidates,
                                      std::size_t horizon_windows,
                                      PredictorKind predictor,
                                      std::vector<double> bid_levels) {
  ensure_arg(horizon_windows >= 1,
             "PolicySpec::lookahead_spec: need a >= 1 window horizon");
  PolicySpec spec;
  spec.kind = Kind::kLookahead;
  spec.predictor = predictor;
  spec.lookahead.candidates = candidates;
  spec.lookahead.horizon_windows = horizon_windows;
  spec.lookahead.bid_levels = std::move(bid_levels);
  return spec;
}

std::string PolicySpec::label(double scale) const {
  if (kind == Kind::kStatic) {
    const auto scaled = static_cast<std::size_t>(std::max(
        1.0, std::round(static_cast<double>(static_instances) * scale)));
    return "Static-" + std::to_string(scaled);
  }
  if (kind == Kind::kLookahead) {
    std::string label = "Lookahead-" + std::to_string(lookahead.candidates) +
                        "x" + std::to_string(lookahead.horizon_windows);
    if (predictor != PredictorKind::kProfile) {
      label.append("(").append(to_string(predictor)).append(")");
    }
    return label;
  }
  if (predictor == PredictorKind::kProfile) return "Adaptive";
  return "Adaptive(" + to_string(predictor) + ")";
}

std::size_t ScenarioConfig::scaled_instances(std::size_t paper_scale_count) const {
  return static_cast<std::size_t>(std::max(
      1.0, std::round(static_cast<double>(paper_scale_count) * scale)));
}

void ScenarioConfig::set_horizon(SimTime run_horizon) {
  horizon = run_horizon;
  web.horizon = run_horizon;
  bot.horizon = run_horizon;
  zipf.horizon = run_horizon;
}

ScenarioConfig web_scenario(double scale) {
  ensure_arg(scale > 0.0, "web_scenario: scale must be > 0");
  ScenarioConfig config;
  config.workload = WorkloadKind::kWeb;
  config.scale = scale;

  config.web.scale = scale;
  config.horizon = config.web.horizon;  // one week

  // Section V-B1: max response 250 ms, zero rejection target, 80% floor.
  config.qos.max_response_time = 0.250;
  config.qos.max_rejection_rate = 0.0;
  config.qos.min_utilization = 0.80;

  // Mean of 100 ms * U(1, 1.1).
  config.initial_service_time_estimate =
      config.web.service_base * (1.0 + 0.5 * config.web.service_spread);

  // 1000 hosts, 2x quad-core, 16 GB (Section V-A); 1-core/2-GB VMs.
  config.datacenter.host_count = 1000;

  config.modeler.max_vms = 8000;  // full data-center core capacity
  config.modeler.min_vms = 1;
  config.modeler.rejection_tolerance = 0.28;  // rho* ~ 0.85 for k = 2

  config.analyzer.analysis_interval = 60.0;  // the workload's rate interval
  config.analyzer.lead_time = 60.0;
  return config;
}

ScenarioConfig scientific_scenario(double scale) {
  ensure_arg(scale > 0.0, "scientific_scenario: scale must be > 0");
  ScenarioConfig config;
  config.workload = WorkloadKind::kScientific;
  config.scale = scale;

  config.bot.scale = scale;
  config.horizon = config.bot.horizon;  // one day

  // Section V-B2: max response 700 s, zero rejection target, 80% floor.
  config.qos.max_response_time = 700.0;
  config.qos.max_rejection_rate = 0.0;
  config.qos.min_utilization = 0.80;

  // Mean of 300 s * U(1, 1.1).
  config.initial_service_time_estimate =
      config.bot.service_base * (1.0 + 0.5 * config.bot.service_spread);

  config.datacenter.host_count = 1000;

  config.modeler.max_vms = 8000;
  config.modeler.min_vms = 1;
  config.modeler.rejection_tolerance = 0.28;

  // Long-running requests: a 5-minute analysis cadence is still ~1/60th of
  // a service time; lead time of one cadence.
  config.analyzer.analysis_interval = 60.0;
  config.analyzer.lead_time = 60.0;
  return config;
}

ScenarioConfig zipf_scenario(double scale) {
  ensure_arg(scale > 0.0, "zipf_scenario: scale must be > 0");
  ScenarioConfig config;
  config.workload = WorkloadKind::kZipf;
  config.scale = scale;

  config.zipf.scale = scale;
  config.horizon = config.zipf.horizon;  // one day

  // Interactive key-value traffic: the web scenario's QoS envelope.
  config.qos.max_response_time = 0.250;
  config.qos.max_rejection_rate = 0.0;
  config.qos.min_utilization = 0.80;

  // Mean of 100 ms * U(1, 1.1) — a backend (miss-path) service time.
  config.initial_service_time_estimate =
      config.zipf.service_base * (1.0 + 0.5 * config.zipf.service_spread);

  config.datacenter.host_count = 1000;

  config.modeler.max_vms = 8000;
  config.modeler.min_vms = 1;
  config.modeler.rejection_tolerance = 0.28;

  config.analyzer.analysis_interval = 60.0;  // the workload's rate interval
  config.analyzer.lead_time = 60.0;
  return config;
}

std::vector<std::size_t> paper_static_sizes(WorkloadKind kind) {
  if (kind == WorkloadKind::kWeb) return {50, 75, 100, 125, 150};
  return {15, 30, 45, 60, 75};
}

}  // namespace cloudprov
